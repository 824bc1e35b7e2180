package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"mindetail/internal/maintain"
	"mindetail/internal/ra"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range []Frame{
		{Kind: KindPing, ID: 0},
		{Kind: KindHello, ID: 1, Body: AppendHello(nil, "s3cret")},
		{Kind: KindExec, ID: 1 << 40, Body: AppendStringBody(nil, "SELECT 1")},
		{Kind: KindOK, ID: 7},
		{Kind: KindError, ID: 8, Body: AppendStringBody(nil, "boom")},
	} {
		enc := AppendFrame(nil, f)
		got, rest, err := DecodeFrame(enc, 0)
		if err != nil {
			t.Fatalf("%s: decode: %v", f.Kind, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d leftover bytes", f.Kind, len(rest))
		}
		if got.Kind != f.Kind || got.ID != f.ID || !bytes.Equal(got.Body, f.Body) {
			t.Fatalf("%s: round trip mismatch: %+v != %+v", f.Kind, got, f)
		}
	}
}

func TestFrameStreamRoundTrip(t *testing.T) {
	var net bytes.Buffer
	var wbuf []byte
	var err error
	frames := []Frame{
		{Kind: KindQuery, ID: 1, Body: AppendQueryBody(nil, "product_sales", 0)},
		{Kind: KindApply, ID: 2, Body: AppendDeltaBody(nil, maintain.Delta{Table: "sale"})},
		{Kind: KindOK, ID: 3},
	}
	for _, f := range frames {
		if wbuf, err = WriteFrame(&net, wbuf, f); err != nil {
			t.Fatal(err)
		}
	}
	var rbuf []byte
	for _, want := range frames {
		var got Frame
		if got, rbuf, err = ReadFrame(&net, rbuf, 0); err != nil {
			t.Fatal(err)
		}
		if got.Kind != want.Kind || got.ID != want.ID || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("stream mismatch: %+v != %+v", got, want)
		}
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	good := AppendFrame(nil, Frame{Kind: KindPing, ID: 9})
	cases := map[string][]byte{
		"torn header":     good[:4],
		"torn payload":    good[:len(good)-1],
		"flipped crc":     append(append([]byte{}, good[:4]...), append([]byte{good[4] ^ 1}, good[5:]...)...),
		"flipped payload": append(append([]byte{}, good[:len(good)-1]...), good[len(good)-1]^1),
		"empty":           {},
	}
	for name, data := range cases {
		if _, _, err := DecodeFrame(data, 0); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Oversized length prefix against a small limit.
	big := AppendFrame(nil, Frame{Kind: KindExec, ID: 1, Body: make([]byte, 1024)})
	if _, _, err := DecodeFrame(big, 16); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestResultBodyRoundTrip(t *testing.T) {
	rel := &ra.Relation{
		Cols: ra.Schema{{Table: "t", Name: "a"}, {Name: "b"}},
		Rows: []tuple.Tuple{
			{types.Int(1), types.Str("x")},
			{types.Float(2.5), types.Null},
		},
	}
	rs, err := DecodeResultBody(AppendResultBody(nil, rel))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Cols, []string{"t.a", "b"}) {
		t.Fatalf("cols = %v", rs.Cols)
	}
	if len(rs.Rows) != 2 || !types.Identical(rs.Rows[0][0], types.Int(1)) ||
		!types.Identical(rs.Rows[1][1], types.Null) {
		t.Fatalf("rows = %v", rs.Rows)
	}
	// Absent relation (DDL/DML scripts).
	if rs, err := DecodeResultBody(AppendResultBody(nil, nil)); err != nil || rs != nil {
		t.Fatalf("nil relation: %v %v", rs, err)
	}
}

func TestVersionedQueryBodiesRoundTrip(t *testing.T) {
	view, since, err := DecodeQueryBody(AppendQueryBody(nil, "product_sales", 1<<33))
	if err != nil || view != "product_sales" || since != 1<<33 {
		t.Fatalf("query body = %q, %d, %v", view, since, err)
	}
	if ver, err := DecodeUnchangedBody(AppendUnchangedBody(nil, 42)); err != nil || ver != 42 {
		t.Fatalf("unchanged body = %d, %v", ver, err)
	}
	rel := &ra.Relation{Cols: ra.Schema{{Name: "a"}}, Rows: []tuple.Tuple{{types.Int(7)}}}
	ver, rs, err := DecodeViewBody(AppendViewBody(nil, 9, rel))
	if err != nil || ver != 9 || len(rs.Rows) != 1 || !types.Identical(rs.Rows[0][0], types.Int(7)) {
		t.Fatalf("view body = %d, %v, %v", ver, rs, err)
	}
	// Every decoder consumes its input exactly, and a view always carries
	// a relation.
	for name, bad := range map[string]error{
		"query trailing":     func() error { _, _, err := DecodeQueryBody(append(AppendQueryBody(nil, "v", 1), 0)); return err }(),
		"query no version":   func() error { _, _, err := DecodeQueryBody(AppendStringBody(nil, "v")); return err }(),
		"unchanged trailing": func() error { _, err := DecodeUnchangedBody([]byte{1, 0}); return err }(),
		"unchanged empty":    func() error { _, err := DecodeUnchangedBody(nil); return err }(),
		"view without rows":  func() error { _, _, err := DecodeViewBody(AppendViewBody(nil, 1, nil)); return err }(),
	} {
		if bad == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBatchResultBodyRoundTrip(t *testing.T) {
	in := []error{nil, errors.New("unknown table x"), nil}
	out, err := DecodeBatchResultBody(AppendBatchResultBody(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []string{"", "unknown table x", ""}) {
		t.Fatalf("outcomes = %v", out)
	}
}

func TestDeltaBatchBodyRoundTrip(t *testing.T) {
	ds := []maintain.Delta{
		{Table: "sale", Inserts: []tuple.Tuple{{types.Int(1), types.Float(2.5)}}},
		{Table: "time", Deletes: []tuple.Tuple{{types.Int(9)}},
			Updates: []maintain.Update{{Old: tuple.Tuple{types.Str("a")}, New: tuple.Tuple{types.Str("b")}}}},
	}
	got, err := DecodeDeltaBatchBody(AppendDeltaBatchBody(nil, ds))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ds) {
		t.Fatalf("batch round trip mismatch:\n got %#v\nwant %#v", got, ds)
	}
}

// FuzzDecodeFrame mirrors the WAL's FuzzDecodePayload at the wire layer:
// torn or corrupt frames must be rejected with an error — never a panic or
// a huge allocation — and an accepted frame must re-encode byte-
// identically (each valid frame has exactly one wire representation).
// When the frame carries a known body shape, the body decoder is fuzzed
// through the same invariant.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(AppendFrame(nil, Frame{Kind: KindPing, ID: 3}))
	f.Add(AppendFrame(nil, Frame{Kind: KindHello, ID: 0, Body: AppendHello(nil, "pw")}))
	f.Add(AppendFrame(nil, Frame{Kind: KindExec, ID: 5, Body: AppendStringBody(nil, "SELECT month FROM v")}))
	f.Add(AppendFrame(nil, Frame{Kind: KindApply, ID: 6, Body: AppendDeltaBody(nil, maintain.Delta{
		Table:   "sale",
		Inserts: []tuple.Tuple{{types.Int(1), types.Str("x"), types.Float(1.5)}},
	})}))
	f.Add(AppendFrame(nil, Frame{Kind: KindBatchResult, ID: 7,
		Body: AppendBatchResultBody(nil, []error{nil, errors.New("e")})}))
	f.Add(AppendFrame(nil, Frame{Kind: KindQuery, ID: 8, Body: AppendQueryBody(nil, "product_sales", 300)}))
	f.Add(AppendFrame(nil, Frame{Kind: KindUnchanged, ID: 9, Body: AppendUnchangedBody(nil, 300)}))
	f.Add(AppendFrame(nil, Frame{Kind: KindView, ID: 10, Body: AppendViewBody(nil, 301, &ra.Relation{
		Cols: ra.Schema{{Table: "time", Name: "month"}, {Name: "total"}},
		Rows: []tuple.Tuple{{types.Int(1), types.Float(2.5)}, {types.Int(2), types.Null}},
	})}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, rest, err := DecodeFrame(data, 1<<20)
		if err != nil {
			return
		}
		enc := AppendFrame(nil, fr)
		if want := data[:len(data)-len(rest)]; !bytes.Equal(enc, want) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", enc, want)
		}
		// Body decoders must also never panic, and accepted bodies must
		// re-encode identically.
		switch fr.Kind {
		case KindHello:
			if _, secret, err := DecodeHello(fr.Body); err == nil {
				if got := AppendHello(nil, secret); !bytes.Equal(got, fr.Body) {
					t.Fatalf("hello re-encode mismatch")
				}
			}
		case KindExec, KindError:
			if s, err := DecodeStringBody(fr.Body); err == nil {
				if got := AppendStringBody(nil, s); !bytes.Equal(got, fr.Body) {
					t.Fatalf("string body re-encode mismatch")
				}
			}
		case KindApply:
			if d, err := DecodeDeltaBody(fr.Body); err == nil {
				if got := AppendDeltaBody(nil, d); !bytes.Equal(got, fr.Body) {
					t.Fatalf("delta body re-encode mismatch")
				}
			}
		case KindApplyBatch:
			if ds, err := DecodeDeltaBatchBody(fr.Body); err == nil {
				if got := AppendDeltaBatchBody(nil, ds); !bytes.Equal(got, fr.Body) {
					t.Fatalf("delta batch re-encode mismatch")
				}
			}
		case KindBatchResult:
			if msgs, err := DecodeBatchResultBody(fr.Body); err == nil {
				errs := make([]error, len(msgs))
				for i, m := range msgs {
					if m != "" {
						errs[i] = errors.New(m)
					}
				}
				if got := AppendBatchResultBody(nil, errs); !bytes.Equal(got, fr.Body) {
					t.Fatalf("batch result re-encode mismatch")
				}
			}
		case KindQuery:
			if view, since, err := DecodeQueryBody(fr.Body); err == nil {
				if got := AppendQueryBody(nil, view, since); !bytes.Equal(got, fr.Body) {
					t.Fatalf("query body re-encode mismatch")
				}
			}
		case KindUnchanged:
			if ver, err := DecodeUnchangedBody(fr.Body); err == nil {
				if got := AppendUnchangedBody(nil, ver); !bytes.Equal(got, fr.Body) {
					t.Fatalf("unchanged body re-encode mismatch")
				}
			}
		case KindView:
			if ver, _, err := DecodeViewBody(fr.Body); err == nil {
				if got := binary.AppendUvarint(nil, ver); !bytes.HasPrefix(fr.Body, got) {
					t.Fatalf("view version re-encode mismatch")
				}
			}
		case KindResult:
			_, _ = DecodeResultBody(fr.Body) // reject-never-panic; result sets
			// are server→client only, so identity is covered by the typed
			// round-trip tests rather than reconstructing an ra.Relation here.
		}
	})
}
