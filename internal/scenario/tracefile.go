package scenario

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"ecost/internal/trace"
	"ecost/internal/workloads"
)

// The JSONL trace format: one arrival per line,
//
//	{"at":123.456,"app":"wc","size_gb":5}
//
// with `at` in simulated seconds (non-negative, non-decreasing across
// lines), `app` one of the eleven studied application codes, and
// `size_gb` a positive finite per-node input size. WriteTrace emits
// the canonical form (shortest float rendering, fixed key order);
// ReadTrace accepts any field order but is otherwise strict — unknown
// fields, NaN/Inf/negative sizes and non-monotone times are typed
// *TraceError rejections. Write→Read is lossless (Go renders floats
// at round-trip precision), so a recorded stream replays through the
// scheduler with byte-identical metrics/timeline/decision exports.

// TraceError is the typed rejection for a malformed JSONL trace: the
// 1-based line and why it was rejected.
type TraceError struct {
	Line   int
	Reason string
}

func (e *TraceError) Error() string {
	return fmt.Sprintf("scenario: trace line %d: %s", e.Line, e.Reason)
}

func traceErrf(line int, format string, args ...any) *TraceError {
	return &TraceError{Line: line, Reason: fmt.Sprintf(format, args...)}
}

// traceLine is the wire form of one arrival.
type traceLine struct {
	At     float64 `json:"at"`
	App    string  `json:"app"`
	SizeGB float64 `json:"size_gb"`
}

// maxTraceLine bounds one JSONL line; a well-formed line is under a
// hundred bytes.
const maxTraceLine = 1 << 20

// WriteTrace writes the stream in canonical JSONL form.
func WriteTrace(w io.Writer, tr []trace.Arrival) error {
	bw := bufio.NewWriter(w)
	for _, a := range tr {
		raw, err := json.Marshal(traceLine{At: a.At, App: a.App.Name(), SizeGB: a.SizeGB})
		if err != nil {
			return err
		}
		if _, err := bw.Write(raw); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a JSONL trace, validating every line. Blank lines
// are skipped; everything else must be a well-formed arrival, in
// non-decreasing time order.
func ReadTrace(r io.Reader) ([]trace.Arrival, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxTraceLine)
	var out []trace.Arrival
	line := 0
	prev := 0.0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if len(out) >= MaxJobs {
			return nil, traceErrf(line, "trace exceeds %d arrivals", MaxJobs)
		}
		var tl traceLine
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&tl); err != nil {
			return nil, traceErrf(line, "not a trace arrival: %v", err)
		}
		// One JSON document per line — trailing garbage is a reject.
		if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
			return nil, traceErrf(line, "trailing data after the arrival object")
		}
		if math.IsNaN(tl.At) || math.IsInf(tl.At, 0) || tl.At < 0 {
			return nil, traceErrf(line, "arrival time %v must be finite and non-negative", tl.At)
		}
		if tl.At < prev {
			return nil, traceErrf(line, "arrival time %v precedes %v (times must be non-decreasing)", tl.At, prev)
		}
		if !(tl.SizeGB > 0) || math.IsInf(tl.SizeGB, 0) {
			return nil, traceErrf(line, "size %v GB must be positive and finite", tl.SizeGB)
		}
		app, err := workloads.Lookup(tl.App)
		if err != nil {
			return nil, traceErrf(line, "%v", err)
		}
		prev = tl.At
		out = append(out, trace.Arrival{At: tl.At, App: app, SizeGB: tl.SizeGB})
	}
	if err := sc.Err(); err != nil {
		return nil, traceErrf(line+1, "%v", err)
	}
	return out, nil
}
