package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// encodingJSON is the reference: the bytes json.NewEncoder(w).Encode
// writes for out.
func encodingJSON(t testing.TB, out *ColorResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkReplyBytes(t testing.TB, out *ColorResponse) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteColorResponse(&buf, out); err != nil {
		t.Fatal(err)
	}
	if want := encodingJSON(t, out); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteColorResponse wrote\n%q\nencoding/json writes\n%q", buf.Bytes(), want)
	}
}

// checkReplyIsEncodingJSON fails the test unless a /color success reply
// is byte for byte what encoding/json writes for the response it decodes
// to.
func checkReplyIsEncodingJSON(t testing.TB, body []byte) {
	t.Helper()
	var out ColorResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode reply: %v", err)
	}
	if want := encodingJSON(t, &out); !bytes.Equal(body, want) {
		t.Fatalf("reply\n%s\nis not encoding/json's\n%s", body, want)
	}
}

// awkwardStrings covers every escaping rule encoding/json applies.
var awkwardStrings = []string{
	"", "0123456789abcdef", "req-5e1f", "<script>&amp;</script>", `a"b\c/d`,
	"\x00\x01\b\f\n\r\t\x1f\x7f", "héllo, 世界 🎨", "\xff\xfe", "ok\xe2\x82", "\xed\xa0\x80",
	"\u2028\u2029", "\ufffd", "http://127.0.0.1:8431",
}

// TestWriteColorResponseEveryField sets each field of ColorResponse alone,
// found by reflection so a field added later cannot be missed, to values
// that exercise its encoding, and compares the bytes with encoding/json's.
func TestWriteColorResponseEveryField(t *testing.T) {
	checkReplyBytes(t, &ColorResponse{})
	typ := reflect.TypeOf(ColorResponse{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var values []any
		switch f.Type.Kind() {
		case reflect.String:
			for _, s := range awkwardStrings {
				values = append(values, s)
			}
		case reflect.Int, reflect.Int64:
			values = []any{0, 1, -1, 999, 1000, -1 << 31, 1<<53 + 1}
		case reflect.Bool:
			values = []any{false, true}
		case reflect.Slice:
			if f.Type.Elem().Kind() != reflect.Int32 {
				t.Fatalf("field %s: no test values for %s", f.Name, f.Type)
			}
			values = []any{[]int32(nil), []int32{}, []int32{0}, []int32{0, 1, 2, 999, 1000, 1001, -1, -1 << 31, 1<<31 - 1}}
		default:
			t.Fatalf("field %s: no test values for %s", f.Name, f.Type)
		}
		for _, v := range values {
			var out ColorResponse
			fv := reflect.ValueOf(&out).Elem().Field(i)
			fv.Set(reflect.ValueOf(v).Convert(f.Type))
			t.Run(f.Name, func(t *testing.T) { checkReplyBytes(t, &out) })
		}
	}
}

// FuzzWriteColorResponse compares WriteColorResponse with encoding/json on
// arbitrary strings, numbers, flags and colors.
func FuzzWriteColorResponse(f *testing.F) {
	for i, s := range awkwardStrings {
		f.Add(s, s, int64(i), uint32(i)*0x9e3779b9, []byte{byte(i), 1, 0xe8, 0x03, 0, 0, 0xff, 0xff})
	}
	f.Fuzz(func(t *testing.T, s1, s2 string, n int64, flags uint32, colorBytes []byte) {
		colors := make([]int32, 0, len(colorBytes)/2)
		for i := 0; i+1 < len(colorBytes); i += 2 {
			c := int32(int16(uint16(colorBytes[i]) | uint16(colorBytes[i+1])<<8))
			if colorBytes[i]&1 == 1 {
				c *= 70000 // reach past int16 both ways
			}
			colors = append(colors, c)
		}
		if flags&(1<<30) != 0 {
			colors = nil
		}
		bit := func(k int) bool { return flags&(1<<k) != 0 }
		num := func(k int) int { return int(n>>k) ^ int(flags&0xff) }
		out := &ColorResponse{
			Fingerprint: s1, NumColors: num(1), Colors: colors, Vertices: num(2), Edges: num(3),
			Cycles: n, Iterations: num(4), Recovery: s2, Attempts: num(5), Repaired: num(6) * int(flags>>20&1),
			Cached: bit(0), Coalesced: bit(1), Hedged: bit(2), Batched: bit(3), BatchSize: num(7) * int(flags>>21&1),
			Device: num(8), WaitUS: n >> 9, ExecUS: -n,
			Shards: num(10) * int(flags>>22&1), ShardConflicts: num(11) * int(flags>>23&1),
			ShardRepairRounds: num(12) * int(flags>>24&1), ShardRecolored: num(13) * int(flags>>25&1),
			Delta: bit(4), FrontierSize: num(14) * int(flags>>26&1), DeltaFallback: bit(5),
			BaseFingerprint: s2[:len(s2)*int(flags>>27&1)], RequestID: s1 + s2,
			IdempotentReplay: bit(6), Worker: s1[:len(s1)*int(flags>>28&1)], Scattered: bit(7),
			Redispatched: num(15) * int(flags>>29&1),
		}
		checkReplyBytes(t, out)
	})
}

// BenchmarkWriteColorResponse renders a 4096-vertex reply, the size the
// serving benchmark's delta steps answer, with WriteColorResponse and with
// encoding/json.
func BenchmarkWriteColorResponse(b *testing.B) {
	colors := make([]int32, 4096)
	for i := range colors {
		colors[i] = int32(i*7919) % 61
	}
	out := &ColorResponse{
		Fingerprint: "5e1f0c2d9a7b3e41", NumColors: 61, Colors: colors, Vertices: 4096, Edges: 48572,
		Recovery: "none", Attempts: 1, Device: -1, ExecUS: 41, Delta: true, FrontierSize: 44,
		BaseFingerprint: "0c2d9a7b3e415e1f", RequestID: "req-8f14e45fceea167a",
	}
	var buf bytes.Buffer
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := WriteColorResponse(&buf, out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
