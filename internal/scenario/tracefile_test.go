package scenario

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestTraceRoundTrip: Write→Read is lossless and Read→Write is
// byte-identical on canonical input — the invariant behind the
// record→replay golden in internal/experiments.
func TestTraceRoundTrip(t *testing.T) {
	tr := mustGenerate(t, heavySpec(2000, 21))
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	first := buf.String()

	got, err := ReadTrace(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(tr) {
		t.Fatal("Read(Write(stream)) is not the original stream")
	}
	var buf2 bytes.Buffer
	if err := WriteTrace(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Fatal("re-written trace is not byte-identical to the recorded one")
	}
}

// TestReadTraceRejects: every malformed line is a typed *TraceError
// carrying the right line number.
func TestReadTraceRejects(t *testing.T) {
	ok := `{"at":0,"app":"wc","size_gb":5}`
	cases := []struct {
		name  string
		input string
		line  int
	}{
		{"garbage", "not json", 1},
		{"negative time", `{"at":-1,"app":"wc","size_gb":5}`, 1},
		{"infinite time", `{"at":1e999,"app":"wc","size_gb":5}`, 1},
		{"non-monotone", ok + "\n" + `{"at":10,"app":"st","size_gb":1}` + "\n" + `{"at":9,"app":"st","size_gb":1}`, 3},
		{"nan size", `{"at":0,"app":"wc","size_gb":NaN}`, 1},
		{"negative size", `{"at":0,"app":"wc","size_gb":-3}`, 1},
		{"zero size", `{"at":0,"app":"wc","size_gb":0}`, 1},
		{"unknown app", `{"at":0,"app":"nope","size_gb":5}`, 1},
		{"missing app", `{"at":0,"size_gb":5}`, 1},
		{"unknown field", `{"at":0,"app":"wc","size_gb":5,"color":"red"}`, 1},
		{"trailing data", ok + ` {"at":1,"app":"wc","size_gb":5}`, 1},
		{"second line bad", ok + "\n" + "{", 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := ReadTrace(strings.NewReader(c.input))
			if err == nil {
				t.Fatalf("accepted malformed trace %q", c.input)
			}
			if got != nil {
				t.Fatalf("returned arrivals alongside error %v", err)
			}
			var te *TraceError
			if !errors.As(err, &te) {
				t.Fatalf("error %T is not a *TraceError: %v", err, err)
			}
			if te.Line != c.line {
				t.Fatalf("error on line %d, want %d: %v", te.Line, c.line, err)
			}
		})
	}
}

// TestReadTraceLenient: blank lines and surrounding whitespace are
// tolerated; equal timestamps are (ties are legal in an open-loop
// trace).
func TestReadTraceLenient(t *testing.T) {
	in := "\n  {\"at\":0,\"app\":\"wc\",\"size_gb\":5}  \n\n{\"at\":0,\"app\":\"st\",\"size_gb\":1}\n"
	got, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].App.Name() != "wc" || got[1].App.Name() != "st" {
		t.Fatalf("parsed %v", got)
	}
}

// TestReadTraceEmpty: an empty trace is an empty stream, not an error
// (the caller decides whether zero jobs is usable).
func TestReadTraceEmpty(t *testing.T) {
	got, err := ReadTrace(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("parsed %d arrivals from empty input", len(got))
	}
}
