package obs

import "time"

// SpanJSON is the wire/JSON shape of one span, as served by /debug/traces
// and embedded in slow_op log events.
type SpanJSON struct {
	Name       string         `json:"name"`
	Start      string         `json:"start"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []SpanJSON     `json:"children,omitempty"`
}

// TraceJSON is the JSON shape of one trace.
type TraceJSON struct {
	ID         uint64   `json:"id"`
	Op         string   `json:"op"`
	DurationMS float64  `json:"duration_ms"`
	Root       SpanJSON `json:"root"`
}

// JSON renders the trace for serving. Spans still open render with
// duration 0.
func (t *Trace) JSON() TraceJSON {
	if t == nil {
		return TraceJSON{}
	}
	return TraceJSON{
		ID:         t.id,
		Op:         t.op,
		DurationMS: durMS(t.Duration()),
		Root:       t.root.json(),
	}
}

func (s *Span) json() SpanJSON {
	if s == nil {
		return SpanJSON{}
	}
	s.mu.Lock()
	out := SpanJSON{
		Name:       s.name,
		Start:      s.start.Format(time.RFC3339Nano),
		DurationMS: durMS(s.dur),
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.json())
	}
	return out
}
