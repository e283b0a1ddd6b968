package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/url"
	"reflect"
	"testing"

	"gcolor/internal/gen"
	"gcolor/internal/graph"
	"gcolor/internal/journal"
)

// checkDecode fails the test unless decodeColorRequest gives json.Unmarshal
// into a fresh ColorRequest's answer for body — accepted or rejected, the
// same error text, a DeepEqual result (nil and empty slices differ) — and
// leaves body as it was.
func checkDecode(t testing.TB, body []byte) {
	t.Helper()
	orig := bytes.Clone(body)
	var got, want ColorRequest
	_, gerr := decodeColorRequest(body, &got)
	werr := json.Unmarshal(body, &want)
	if !bytes.Equal(body, orig) {
		t.Fatalf("decodeColorRequest modified the body %q", orig)
	}
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("body %q: decodeColorRequest error %v, json.Unmarshal error %v", body, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: decodeColorRequest gave\n%#v\njson.Unmarshal gave\n%#v", body, got, want)
	}
}

// checkCanonical fails the test unless body is read in one pass, with no
// fallback, into what json.Unmarshal makes of it.
func checkCanonical(t testing.TB, what string, body []byte) {
	t.Helper()
	var got, want ColorRequest
	if !readColorRequest(body, &got) {
		t.Fatalf("%s: not read in one pass: %.300q", what, body)
	}
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("%s: json.Unmarshal: %v", what, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: read\n%#v\njson.Unmarshal gave\n%#v", what, got, want)
	}
}

func marshalRequest(t testing.TB, cr *ColorRequest) []byte {
	t.Helper()
	b, err := json.Marshal(cr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// canonicalBodies are read in one pass; fallbackBodies, one of each kind
// the reader leaves to encoding/json, are not.
var (
	canonicalBodies = []string{
		`{}`, ` { } `, "\t{\n\"gen\" : \"grid:4:4\" ,\r\n\"seed\":7}\n", `{"gen":"x"} `, `{"seed":0}`,
		`{"graph":"0 1\n1 2\n","alg":"hybrid","seed":4294967295,"include_colors":true}`,
		`{"base_fingerprint":"00000000000000ab","add_vertices":2,"add_edges":[[0,1],[2147483647,-2147483648]],"remove_edges":[]}`,
		`{"graph":"a\"b\\c\/d\b\f\n\r\t","cycle_budget":-9223372036854775808,"timeout_ms":9223372036854775807,"fused":false}`,
		`{"add_edges":[ [ 1 , 2 ] , [3,4] ]}`,
	}
	fallbackBodies = []string{
		// Keys: unknown, case variants, repeated, escaped, empty.
		`{"nope":1}`, `{"Graph":"0 1"}`, `{"GEN":"grid:2:2"}`, `{"seed":1,"seed":2}`,
		`{"add_edges":[[0,1]],"add_edges":[[2,3]]}`, `{"g\u0065n":"grid:2:2"}`, `{"":1}`,
		// null and wrong types.
		`null`, `{"gen":null}`, `{"add_edges":null}`, `{"add_edges":[null]}`, `{"seed":"5"}`,
		`{"fused":1}`, `{"alg":5}`, `{"add_edges":{}}`, `{"add_edges":[[0,"1"]]}`,
		// Escapes and bytes outside printable ASCII.
		`{"gen":"gr\u0069d:2:2"}`, `{"gen":"\ud800"}`, `{"gen":"\udc00\ud800"}`, `{"gen":"\x"}`,
		"{\"gen\":\"h\xc3\xa9\"}", "{\"gen\":\"\xff\"}", "{\"gen\":\"a\x7f\"}", "{\"gen\":\"a\x01\"}",
		"\xef\xbb\xbf{}",
		// Numbers.
		`{"seed":-0}`, `{"threshold":-0}`, `{"seed":01}`, `{"seed":1e2}`, `{"seed":1.0}`, `{"seed":1.5}`,
		`{"seed":-1}`, `{"seed":4294967296}`, `{"threshold":9223372036854775808}`,
		`{"threshold":-9223372036854775809}`, `{"cycle_budget":99999999999999999999}`,
		`{"add_edges":[[2147483648,0]]}`, `{"add_edges":[[0,-2147483649]]}`, `{"seed":+1}`, `{"seed":-}`,
		// Inner arrays not of length 2.
		`{"add_edges":[[]]}`, `{"add_edges":[[1]]}`, `{"add_edges":[[1,2,3]]}`, `{"remove_edges":[1,2]}`,
		// Structure.
		``, ` `, `{`, `}`, `{"gen"}`, `{"gen":}`, `{"gen":"x",}`, `{,}`, `{"gen":"x"}x`, `{"gen":"x"}{}`,
		`[]`, `"x"`, `1`, `true`, `{"fused":truex}`, `{"fused":tru}`, `{"gen":"x`,
		`{"add_edges":[[0,1],]}`, `{"add_edges":[[0,1]`, `{"gen":"x"`,
	}
)

// TestDecodeColorRequestShape pins the canonical shape: the reader reads
// exactly the canonical bodies, and every body decodes as json.Unmarshal
// decodes it (the fuzz target runs the same bodies as its seeds).
func TestDecodeColorRequestShape(t *testing.T) {
	var cr ColorRequest
	for _, body := range canonicalBodies {
		checkCanonical(t, "canonical body", []byte(body))
	}
	for _, body := range fallbackBodies {
		if readColorRequest([]byte(body), &cr) {
			t.Errorf("body %q read in one pass, want it left to encoding/json", body)
		}
		checkDecode(t, []byte(body))
	}
}

// TestDecodeColorRequestEveryField sets each field of ColorRequest alone,
// found by reflection so that a field added later cannot be dropped, to
// values json.Marshal writes in the canonical shape, and requires the
// one-pass reader to read the body and agree with json.Unmarshal.
func TestDecodeColorRequestEveryField(t *testing.T) {
	checkCanonical(t, "zero request", marshalRequest(t, &ColorRequest{}))
	typ := reflect.TypeOf(ColorRequest{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var values []any
		switch f.Type.Kind() {
		case reflect.String:
			values = []any{"x", "rmat:10:8:1", "0 1\n1 2\n", "AAEC+/8=", `a"b\c/d`, "\b\f\n\r\t", " ~"}
		case reflect.Int, reflect.Int64:
			values = []any{1, -1, math.MaxInt32, math.MinInt32 - 1, math.MaxInt64, math.MinInt64}
		case reflect.Uint32:
			values = []any{1, math.MaxUint32}
		case reflect.Bool:
			values = []any{true}
		case reflect.Slice:
			if f.Type != reflect.TypeOf([][2]int32(nil)) {
				t.Fatalf("field %s: no test values for %s", f.Name, f.Type)
			}
			values = []any{[][2]int32{{0, 1}}, [][2]int32{{math.MinInt32, math.MaxInt32}, {5, 5}, {0, 0}}}
		default:
			t.Fatalf("field %s: no test values for %s", f.Name, f.Type)
		}
		for _, v := range values {
			var cr ColorRequest
			rv := reflect.ValueOf(v)
			if f.Type.Kind() == reflect.Slice {
				reflect.ValueOf(&cr).Elem().Field(i).Set(rv)
			} else {
				reflect.ValueOf(&cr).Elem().Field(i).Set(rv.Convert(f.Type))
			}
			checkCanonical(t, f.Name, marshalRequest(t, &cr))
		}
	}
}

// TestDecodeColorRequestSystemBodies: every JSON body this system writes
// itself is read in one pass. The coordinator's routing, scatter and delta
// envelopes to workers are checked end to end in internal/cluster
// (TestCoordinatorEnvelopesTakeFastPath).
func TestDecodeColorRequestSystemBodies(t *testing.T) {
	g := gen.GNM(300, 1200, 3)
	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, g); err != nil {
		t.Fatal(err)
	}
	// Client uploads: gcload's spec mix (and its -baseline variant), its
	// drill and mutate bodies, and the serving benchmark's edge-list
	// uploads and delta steps.
	for _, cr := range []ColorRequest{
		{Gen: "rmat:10:8:1", Alg: "hybrid", Policy: "stealing", Priority: "high", TimeoutMS: 30_000},
		{Gen: "gnm:2000:8000:77", Alg: "baseline", TimeoutMS: 30_000, NoCache: true},
		{Gen: "grid:12:16", Alg: "baseline", TimeoutMS: 30_000},
		{Gen: "rmat:12:16", Resident: true, TimeoutMS: 5_000},
		{BaseFingerprint: "5e1f0c2d9a7b3e41", TimeoutMS: 5_000, AddEdges: [][2]int32{{3, 9}, {4095, 0}}, RemoveEdges: [][2]int32{{1, 2}}},
		{Graph: text.String(), Alg: "hybrid", Policy: "roundrobin", Seed: 1701, IncludeColors: true},
		{BaseFingerprint: "0c2d9a7b3e415e1f", AddVertices: 2, AddEdges: [][2]int32{{0, 4096}}, RemoveEdges: [][2]int32{{7, 8}}, IncludeColors: true},
	} {
		checkCanonical(t, "client upload", marshalRequest(t, &cr))
	}

	// replayWire's envelopes for binary uploads: a graph frame and a delta
	// frame, options from the query.
	a := NewAdmission(Config{})
	q := url.Values{"alg": {"hybrid"}, "seed": {"4294967295"}, "threshold": {"-3"}, "include_colors": {"true"},
		"shards": {"2"}, "timeout_ms": {"900"}, "no_cache": {"true"}, "priority": {"low"}}.Encode()
	d := &graph.Delta{AddVertices: 1, AddEdges: [][2]int32{{0, 300}}, RemoveEdges: [][2]int32{{1, 2}}}
	for _, frame := range [][]byte{graph.EncodeWireCSR(g), graph.EncodeWireDelta(g.Fingerprint(), d)} {
		_, req, err := a.Decode(&Upload{ContentType: ContentTypeBinaryCSR, RawQuery: q, Body: frame})
		if err != nil {
			t.Fatal(err)
		}
		checkCanonical(t, "replayWire envelope", req.replayWire())
	}

	// writeVersions' snapshot records: chain roots as graph_csr_b64 and
	// the chain's deltas, read back as recovery reads them.
	dir := t.TempDir()
	j1, rec1 := openTestJournal(t, dir)
	s1 := NewServer(Config{Devices: 1, Journal: j1, Recovery: rec1})
	fp := submitResident(t, s1, g)
	for step := 0; step < 3; step++ {
		res, err := s1.Submit(context.Background(), &Request{BaseFingerprint: fp, Delta: &graph.Delta{
			AddVertices: step % 2, AddEdges: [][2]int32{{int32(step), int32(10 + step)}}}})
		if err != nil {
			t.Fatal(err)
		}
		fp = res.Fingerprint
	}
	if err := j1.Compact(); err != nil {
		t.Fatal(err)
	}
	s1.Stop()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	jc, recc, err := journal.Open(copyJournalDir(t, dir), journal.Options{Fsync: journal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	jc.Close()
	if len(recc.Settled) != 4 {
		t.Fatalf("snapshot settled %d versions, want 4", len(recc.Settled))
	}
	deltas := 0
	for _, sv := range recc.Settled {
		var cr ColorRequest
		checkCanonical(t, "snapshot version record", sv.Accept.Wire)
		if readColorRequest(sv.Accept.Wire, &cr); cr.BaseFingerprint != "" {
			deltas++
		}
	}
	if deltas != 3 {
		t.Fatalf("snapshot wrote %d versions as deltas, want 3 after the chain root", deltas)
	}
}

// FuzzDecodeColorRequest compares decodeColorRequest with json.Unmarshal
// on arbitrary bodies.
func FuzzDecodeColorRequest(f *testing.F) {
	for _, body := range append(canonicalBodies, fallbackBodies...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// BenchmarkDecodeColorRequest decodes two bodies with the one-pass reader
// and with json.Unmarshal: a gnm:1500:6000 edge-list upload (57 KB, the
// shape of the serving benchmark's JSON uploads; ParseEdgeList of the same
// text is timed beside it for scale) and a 32-edit delta step.
func BenchmarkDecodeColorRequest(b *testing.B) {
	g, err := ParseGraphSpec("gnm:1500:6000")
	if err != nil {
		b.Fatal(err)
	}
	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, g); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	d := &ColorRequest{BaseFingerprint: "5e1f0c2d9a7b3e41", IncludeColors: true}
	for i := 0; i < 16; i++ {
		d.AddEdges = append(d.AddEdges, [2]int32{rng.Int31n(4096), rng.Int31n(4096)})
		d.RemoveEdges = append(d.RemoveEdges, [2]int32{rng.Int31n(4096), rng.Int31n(4096)})
	}
	bodies := []struct {
		name string
		body []byte
	}{
		{"edgelist", marshalRequest(b, &ColorRequest{Graph: text.String(), Alg: "hybrid", Policy: "static", Seed: 1701, IncludeColors: true})},
		{"delta32", marshalRequest(b, d)},
	}
	for _, c := range bodies {
		var cr ColorRequest
		if !readColorRequest(c.body, &cr) {
			b.Fatalf("%s body is not canonical", c.name)
		}
		b.Run(c.name+"/onepass", func(b *testing.B) {
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeColorRequest(c.body, &cr); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/encoding_json", func(b *testing.B) {
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cr = ColorRequest{}
				if err := json.Unmarshal(c.body, &cr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("edgelist/parse_edge_list", func(b *testing.B) {
		s := text.String()
		b.SetBytes(int64(len(s)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := graph.ParseEdgeList(s); err != nil {
				b.Fatal(err)
			}
		}
	})
}
