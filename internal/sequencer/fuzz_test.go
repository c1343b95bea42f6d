package sequencer

import (
	"bytes"
	"strings"
	"testing"

	"prognosticator/internal/engine"
	"prognosticator/internal/raft"
	"prognosticator/internal/value"
)

// buildFuzzBatch derives a batch of requests from raw fuzz bytes: each byte
// pair picks a transaction name and one input value of a fuzzer-chosen kind,
// exercising every value.Value kind the wire codec must round-trip.
func buildFuzzBatch(data []byte) []engine.Request {
	var reqs []engine.Request
	for len(data) >= 2 {
		tx := []string{"pay", "newOrder", "transfer", "audit"}[data[0]%4]
		n := int(data[0]%3) + 1
		inputs := map[string]value.Value{}
		data = data[1:]
		for p := 0; p < n && len(data) >= 2; p++ {
			name := string(rune('a' + data[0]%6))
			switch data[1] % 5 {
			case 0:
				inputs[name] = value.Int(int64(data[1]) - 128)
			case 1:
				inputs[name] = value.Str(strings.Repeat(string(rune('k'+data[1]%10)), int(data[1]%7)))
			case 2:
				inputs[name] = value.Bool(data[1]%2 == 0)
			case 3:
				inputs[name] = value.List(value.Int(int64(data[1])), value.Str("e"))
			default:
				inputs[name] = value.Record(map[string]value.Value{
					"f": value.Int(int64(data[1])), "g": value.Bool(data[1]%2 == 0),
				})
			}
			data = data[2:]
		}
		reqs = append(reqs, engine.Request{TxName: tx, Inputs: inputs})
	}
	return reqs
}

func sameRequests(a, b []engine.Request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].TxName != b[i].TxName || len(a[i].Inputs) != len(b[i].Inputs) {
			return false
		}
		for k, v := range a[i].Inputs {
			w, ok := b[i].Inputs[k]
			if !ok || !v.Equal(w) {
				return false
			}
		}
	}
	return true
}

// FuzzBatchRoundTrip drives the sequencer wire codec from two directions.
// Structured: a batch built from the fuzz bytes, with Seq idx and Low idx/2,
// must survive EncodeBatch -> DecodeBatch exactly — same session, same
// requests, sequence numbers derived from the commit index — and re-encode
// byte-identically (the codec is canonical). Raw: DecodeBatch on the same
// bytes as an arbitrary committed command must never panic, and anything it
// accepts must re-encode to exactly its own bytes, which refuses the JSON
// seeds, commands as they were written before the binary encoding. A
// command of the first binary format re-encodes in the current one, as Seq
// 0 and Low 0 of its ID's session. testdata/fuzz/FuzzBatchRoundTrip holds a
// raw command for each class of input the decoder rejects.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add("", uint64(1), []byte{})
	f.Add("batch-7", uint64(7), []byte{0, 0, 1, 1, 2, 2, 3, 3, 4, 4})
	f.Add("retry", uint64(1<<40), []byte{3, 128, 2, 64, 1, 200, 0, 17})
	f.Add("", uint64(0), []byte(`{"id":"x","reqs":[{"tx":"t","in":null}]}`))
	f.Add("dup", uint64(9), []byte(`{"reqs":[]}`))
	f.Add("bin", uint64(2), []byte("\x01\x01x\x01\x01t\x01\x01a\x01\x0e"))
	f.Add("session", uint64(5), []byte("\x02\x01x\x05\x02\x01\x01t\x01\x01a\x01\x0e"))
	f.Add("late", uint64(1<<33), []byte("\x02\x00\x80\x80\x80\x80\x20\x80\x80\x80\x80\x10\x00"))
	f.Fuzz(func(t *testing.T, id string, idx uint64, data []byte) {
		reqs := buildFuzzBatch(data)
		enc, err := EncodeBatch(Batch{ID: id, Seq: idx, Low: idx / 2, Requests: reqs})
		if err != nil {
			t.Fatalf("encode built batch: %v", err)
		}
		b, err := DecodeBatch(raft.Committed{Index: idx, Cmd: enc})
		if err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if b.ID != id || b.Seq != idx || b.Low != idx/2 {
			t.Fatalf("session %q seq %d low %d round-tripped to %q %d %d", id, idx, idx/2, b.ID, b.Seq, b.Low)
		}
		if !sameRequests(reqs, b.Requests) {
			t.Fatalf("requests did not round-trip:\nin:  %+v\nout: %+v", reqs, b.Requests)
		}
		for i, r := range b.Requests {
			if want := idx*seqStride + uint64(i); r.Seq != want {
				t.Fatalf("request %d: Seq = %d, want %d (index %d)", i, r.Seq, want, idx)
			}
		}
		enc2, err := EncodeBatch(b)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if string(enc) != string(enc2) {
			t.Fatalf("encoding not canonical:\n1st: %s\n2nd: %s", enc, enc2)
		}

		// Raw direction: arbitrary bytes must decode cleanly or error, never
		// panic; an accepted command must re-encode to its own bytes.
		rb, err := DecodeBatch(raft.Committed{Index: idx, Cmd: data})
		if err != nil {
			return
		}
		renc, err := EncodeBatch(rb)
		if err != nil {
			t.Fatalf("re-encode accepted raw command: %v", err)
		}
		if data[0] == batchFormatV1 {
			again, err := DecodeBatch(raft.Committed{Index: idx, Cmd: renc})
			if err != nil || again.ID != rb.ID || again.Seq != 0 || again.Low != 0 || !sameRequests(again.Requests, rb.Requests) {
				t.Fatalf("first-format command %x re-encodes to %x, which decodes to %+v, %v", data, renc, again, err)
			}
			return
		}
		if !bytes.Equal(renc, data) {
			t.Fatalf("accepted command %x re-encodes to %x", data, renc)
		}
	})
}
