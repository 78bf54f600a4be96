package main

import (
	"bytes"
	"encoding/json"

	"repro/internal/obs"
)

// span is one complete event of a tracer's Chrome trace.
type span struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Dur  float64        `json:"dur"` // microseconds
	Args map[string]any `json:"args"`
}

// spans reads back the events a tracer recorded.
func spans(t *obs.Tracer) ([]span, error) {
	var buf bytes.Buffer
	if err := t.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []span `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	return doc.TraceEvents, nil
}

// spanTotal sums the durations, in ms, of the complete spans with the
// given category and name.
func spanTotal(sp []span, cat, name string) float64 {
	t := 0.0
	for _, s := range sp {
		if s.Ph == "X" && s.Cat == cat && s.Name == name {
			t += s.Dur / 1000
		}
	}
	return t
}
