//go:build !race

package main

// smokeSeeds is how many seeds a smoke-size run cycles.
const smokeSeeds = 2
