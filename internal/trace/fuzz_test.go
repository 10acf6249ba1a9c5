package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to Read, the decoder traceview
// runs on user files. Read must not panic; a trace it accepts must
// summarize and render without panicking, and every record must
// survive a JSON round trip unchanged.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	r.Meta("CAMPUS", 42)
	r.Emit(Record{Kind: KindGPS, T: 0.02, X: 150, Y: 150, Z: 60})
	r.Emit(Record{Kind: KindSNR, T: 0.02, UE: 3, Value: 17.5})
	r.Emit(Record{Kind: KindEpoch, T: 90, Epoch: 1, LocalizationM: 35, MeasurementM: 600, Objective: 12})
	r.Emit(Record{Kind: KindServe, T: 100, UE: 3, Value: 5e6})
	r.Emit(Record{Kind: KindTraffic, T: 100, UE: 3, Value: 4e6, DelayS: 0.01, LossFrac: 0.2})
	r.Emit(Record{Kind: KindFault, T: 100, Fault: "gtpu_loss", Value: 2, Epoch: 1})
	r.Emit(Record{Kind: KindHandover, T: 101, UE: 3, FromCell: 0, ToCell: 1})
	if err := r.Flush(); err != nil {
		f.Fatal(err)
	}
	good := buf.String()
	f.Add(good)
	f.Add(good[:len(good)-len(good)/3])                            // truncated mid-line
	f.Add(strings.Replace(good, `"kind":"snr"`, `"kind":snr"`, 1)) // bad JSON
	f.Add(good + `{"kind":"gps","x":"` + strings.Repeat("9", 1<<22) + "\"}\n")
	f.Fuzz(func(t *testing.T, in string) {
		recs, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		if _, err := Summarize(recs).WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			var back Record
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatalf("record %d: %s does not decode: %v", i, b, err)
			}
			if back != rec {
				t.Fatalf("record %d: %+v round-trips to %+v", i, rec, back)
			}
		}
	})
}
