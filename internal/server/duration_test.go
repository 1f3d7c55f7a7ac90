package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
)

// TestJSONDurationRejectsNonsense: the JSON codec must refuse negative
// and non-finite compute/deadline values instead of admitting them into
// the engine (the binary codec applies the same rule in
// wire.DecodeSubmit, covered by the wire tests).
func TestJSONDurationRejectsNonsense(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{`"40ms"`, true},
		{`2.5`, true},
		{`0`, true}, // zero passes the codec; the engine rejects it with its own message
		{`"-5ms"`, false},
		{`-3`, false},
		{`1e309`, false}, // +Inf after parsing
		{`1e308`, false}, // finite but overflows int64 nanoseconds
		{`"not-a-dur"`, false},
		{`{"ms":1}`, false},
	} {
		var d jsonDuration
		err := json.Unmarshal([]byte(tc.in), &d)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.in, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted as %v, want error", tc.in, time.Duration(d))
		}
	}

	// And end to end: a negative deadline answers 400, not a hang or a
	// 200 with nonsense timings.
	_, base, _ := startServer(t, Options{Core: core.MainMemoryConfig(core.CCA, 31)})
	for _, body := range []string{
		`{"items":[1],"compute":"1ms","deadline":-7}`,
		`{"items":[1],"compute":1e309,"deadline":"1s"}`,
	} {
		resp, err := http.Post(base+"/submit", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
}
