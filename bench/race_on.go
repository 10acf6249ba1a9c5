//go:build race

package main

// smokeSeeds is how many seeds a smoke-size run cycles; the race
// detector slows the simulator several-fold, so race builds use one.
const smokeSeeds = 1
