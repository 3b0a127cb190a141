package topology

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseFleetJSON feeds arbitrary bytes to the fleet-file decoder:
// fleet files are hand-written, untrusted input. Every input must either
// be rejected with a line number or decode into a fleet that survives a
// marshal/parse round trip unchanged — explicit zeros, nulls and hourly
// intensity profiles included, so a drained or zero-carbon DC never turns
// back into a defaulted one.
func FuzzParseFleetJSON(f *testing.F) {
	// Every optional field at an explicit zero.
	f.Add([]byte(`{"name":"zeros","dcs":[{"name":"a","share":0,"latency_ms":0,"static_power_w":0,"grid_intensity":0},{"name":"b"}]}`))
	// A 24-hour intensity profile.
	f.Add([]byte(`{"name":"hourly","dispatcher":"carbon-greedy","dcs":[{"name":"solar","servers":4,"pue":1.2,"grid_intensity":` +
		`[650,650,650,650,650,650,650,650,60,60,60,60,60,60,60,60,60,60,650,650,650,650,650,650]}]}`))
	// null for each optional field.
	f.Add([]byte(`{"name":"nulls","dcs":[{"name":"a","share":null,"latency_ms":null,"static_power_w":null,"grid_intensity":null}]}`))
	f.Add([]byte(`{"name":"f","dcs":[{"name":"a","share":"x"}]}`))
	f.Add([]byte(`{"name":"f","dcs":[{"name":"a","grid_intensity":[1,2,3]}]}`))
	f.Add([]byte(`{"name":"f","dcs":[{"name":"a","serverss":3}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		fleet, err := ParseFleetJSON(data)
		if err != nil {
			if !strings.Contains(err.Error(), "line ") {
				t.Fatalf("decode error carries no line number: %v", err)
			}
			return
		}
		out, err := json.Marshal(fleet)
		if err != nil {
			t.Fatalf("accepted fleet does not marshal: %v", err)
		}
		back, err := ParseFleetJSON(out)
		if err != nil {
			t.Fatalf("marshalled fleet %s does not parse back: %v", out, err)
		}
		if !reflect.DeepEqual(fleet, back) {
			again, _ := json.Marshal(back)
			t.Fatalf("round trip changed the fleet: %q marshalled as %s, which parsed back as %s", data, out, again)
		}
	})
}
