package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// wireCase is a request body and the endpoint it is meant for.
type wireCase struct{ path, body string }

// plainBodies are inside the grammar the fast scan takes.
var plainBodies = []wireCase{
	// Every scalar field, as json.Marshal writes them.
	{"search", `{"vectors":{"image":[0.1,-2,3e-7],"text":[1]},"k":10,"l":160,"weights":{"image":0.8,"text":0.6},"patience":3,"disable_optimization":true,"timeout_ms":250,"no_cache":false}`},
	// As Python's json.dumps writes them: spaces after , and :, 1e-05,
	// integers where floats are expected, -0.0.
	{"search", `{"vectors": {"image": [0.1, 1e-05, 1, -0.0, 1E+2], "text": [2]}, "k": 10, "no_cache": true}`},
	{"search", " {\n\t\"vectors\" : { } ,\r\n \"k\" : 0 }\n"},
	{"search", `{"vectors":{"image":[]}}`},
	{"search", `{"vectors":{"":[1]}}`},
	{"search", `{"weights":{}}`},
	{"search", `{}`},
	// Underflow to zero, the largest float32, a value that rounds, more
	// digits than a float32 holds, a negative exponent on an integer.
	{"search", `{"vectors":{"image":[1e-400,3.4028234e38,16777217,0.1234567890123456789,-0,5e-1]},"k":-0}`},
	// Python floats of float32 values (17-digit reprs), float32 midpoints
	// and ties between them, and exponents at the fast path's edge.
	{"search", `{"vectors": {"image": [0.12345679104328156, -0.036142528057098389, 1.2345678720289911e-05, 33554434, 9007199254740993, 1e22, 1e23, 1e-22, 1e-23, 0.50000002980232239]}}`},
	{"insert", `{"vectors":{"image":[1,0],"text":[0.5]}}`},
	{"insert", `{"objects":[{"image":[1,0],"text":[1]},{},{"image":[]}]}`},
	{"insert", `{"objects": [], "vectors": {}}`},
	{"delete", `{"ids":[1,2,3]}`},
	{"delete", `{"ids": [ ]}`},
	{"delete", `{"ids":[-0,9223372036854775807,-9223372036854775808]}`},
}

// declinedBodies are outside it, some valid JSON and some not: the fast
// scan must leave every one of them to encoding/json.
var declinedBodies = []wireCase{
	// Escapes and non-ASCII in a key.
	{"search", `{"\u0076ectors":{"image":[1]}}`},
	{"search", `{"vectors":{"im\u0061ge":[1]}}`},
	{"search", `{"vectors":{"ima\/ge":[1]}}`},
	{"search", `{"vectors":{"imagé":[1]}}`},
	{"search", "{\"vec\ttors\":{}}"},
	// null, at every depth.
	{"search", `null`},
	{"search", `{"vectors":null}`},
	{"search", `{"vectors":{"image":null}}`},
	{"search", `{"vectors":{"image":[null]}}`},
	{"insert", `{"objects":[null]}`},
	{"delete", `{"ids":null}`},
	// Duplicate keys (encoding/json merges maps and keeps the last scalar).
	{"search", `{"k":1,"k":2}`},
	{"search", `{"vectors":{"image":[1],"image":[2]}}`},
	{"search", `{"vectors":{"image":[1]},"vectors":{"text":[2]}}`},
	// Unknown fields, and known ones encoding/json matches by case folding.
	{"search", `{"vectorz":{}}`},
	{"search", `{"K":3}`},
	{"insert", `{"ids":[1]}`},
	{"delete", `{"vectors":{}}`},
	// Trailing data.
	{"search", `{"k":1} {"k":2}`},
	{"search", `{"k":1}x`},
	// Out of range.
	{"search", `{"vectors":{"image":[1e400]}}`},
	{"search", `{"k":9223372036854775808}`},
	{"delete", `{"ids":[9223372036854775808]}`},
	// Wrong type.
	{"search", `{"k":1.5}`},
	{"search", `{"k":1e2}`},
	{"search", `{"k":"3"}`},
	{"search", `{"vectors":[1]}`},
	{"search", `{"vectors":{"image":["1"]}}`},
	{"search", `{"vectors":{"image":[[1]]}}`},
	{"search", `{"no_cache":1}`},
	{"insert", `{"objects":{}}`},
	{"delete", `{"ids":[1.0]}`},
	{"delete", `[1]`},
	// Syntax errors, among them number forms strconv would take.
	{"search", ``},
	{"search", `{`},
	{"search", `{"k":1,}`},
	{"search", `{"k" 1}`},
	{"search", `{"k":01}`},
	{"search", `{"k":+1}`},
	{"search", `{"k":-}`},
	{"search", `{"vectors":{"image":[1,]}}`},
	{"search", `{"vectors":{"image":[1 2]}}`},
	{"search", `{"vectors":{"image":[.5]}}`},
	{"search", `{"vectors":{"image":[1.]}}`},
	{"search", `{"vectors":{"image":[1e]}}`},
	{"search", `{"vectors":{"image":[0x10]}}`},
	{"search", `{"vectors":{"image":[Inf]}}`},
	{"search", `{"vectors":{"image":[1_0]}}`},
	{"search", `{"vectors":{"image":[1}}`},
	{"search", `{"no_cache":truex}`},
	{"search", `{"no_cache":tru}`},
}

// checkWire holds one scanner to its contract on one body: when it
// accepts, encoding/json accepts too and decodes the same value, float
// bits and nil-versus-empty included (%#v tells -0 from 0 and nil from
// empty, which DeepEqual alone does not).
func checkWire[T any](t *testing.T, body []byte, scan func([]byte) (T, bool)) (accepted bool) {
	t.Helper()
	fast, accepted := scan(body)
	if !accepted {
		return false
	}
	var std T
	if err := decodeStd(body, &std); err != nil {
		t.Errorf("%T: fast scan accepts %q, encoding/json rejects it: %v", std, body, err)
		return true
	}
	if !reflect.DeepEqual(fast, std) || fmt.Sprintf("%#v", fast) != fmt.Sprintf("%#v", std) {
		t.Errorf("%T: %q\nfast %#v\nstd  %#v", std, body, fast, std)
	}
	return true
}

func checkWirePath(t *testing.T, c wireCase) bool {
	t.Helper()
	switch c.path {
	case "search":
		return checkWire(t, []byte(c.body), scanSearch)
	case "insert":
		return checkWire(t, []byte(c.body), scanInsert)
	case "delete":
		return checkWire(t, []byte(c.body), scanDelete)
	}
	t.Fatalf("unknown path %q", c.path)
	return false
}

// marshalledBodies are json.Marshal's output for requests with random
// vectors, in the test schema's dimensions so a server accepts them.
func marshalledBodies(t testing.TB) []wireCase {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	obj := func() map[string][]float32 {
		return map[string][]float32{"image": randVec(rng, testImgDim), "text": randVec(rng, testTxtDim)}
	}
	var out []wireCase
	for path, v := range map[string]any{
		"search": SearchRequest{Vectors: obj(), K: 3, L: 50, Weights: map[string]float32{"image": 0.5}, Patience: 2,
			DisableOptimization: true, TimeoutMS: 100, NoCache: true},
		"insert": InsertRequest{Vectors: obj(), Objects: []map[string][]float32{obj(), obj()}},
		"delete": DeleteRequest{IDs: []int64{0, 7, 1 << 40}},
	} {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, wireCase{path, string(raw)})
	}
	return out
}

// pythonStyle re-spaces a json.Marshal body the way json.dumps does.
func pythonStyle(body string) string {
	return strings.NewReplacer(",", ", ", ":", ": ").Replace(body)
}

func TestFastScanAcceptsClientBodies(t *testing.T) {
	cases := append([]wireCase(nil), plainBodies...)
	for _, c := range marshalledBodies(t) {
		cases = append(cases, c, wireCase{c.path, pythonStyle(c.body)})
	}
	for _, c := range cases {
		if !checkWirePath(t, c) {
			t.Errorf("%s: fast scan declined %q", c.path, c.body)
		}
	}
}

func TestFastScanDeclines(t *testing.T) {
	for _, c := range declinedBodies {
		if checkWirePath(t, c) {
			t.Errorf("%s: fast scan accepted %q", c.path, c.body)
		}
	}
}

// FuzzDecodeRequest is the differential test of the request decoders
// against encoding/json: every body goes to all three scanners.
func FuzzDecodeRequest(f *testing.F) {
	for _, c := range plainBodies {
		f.Add([]byte(c.body))
	}
	for _, c := range declinedBodies {
		f.Add([]byte(c.body))
	}
	for _, c := range marshalledBodies(f) {
		f.Add([]byte(c.body))
		f.Add([]byte(pythonStyle(c.body)))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkWire(t, body, scanSearch)
		checkWire(t, body, scanInsert)
		checkWire(t, body, scanDelete)
	})
}

// float32Ref is the conversion before parseFloat32: number, then
// strconv.ParseFloat(text, 32). n is the length number consumed.
func float32Ref(b []byte) (f float32, n int, ok bool) {
	s := scanner{b: b}
	text, _, ok := s.number()
	if !ok {
		return 0, 0, false
	}
	v, err := strconv.ParseFloat(string(text), 32)
	return float32(v), s.i, err == nil
}

// checkFloat32 holds scanner.float32 to float32Ref on one number, bits
// and consumed length, and reports whether parseFloat32 answered it.
func checkFloat32(t *testing.T, num string) (fast bool) {
	t.Helper()
	b := []byte(num)
	want, wantN, wantOK := float32Ref(b)
	s := scanner{b: b}
	got, ok := s.float32()
	if ok != wantOK || ok && (math.Float32bits(got) != math.Float32bits(want) || s.i != wantN) {
		t.Errorf("%q: scanner gives %v (%#x) ok=%v after %d bytes; strconv %v (%#x) ok=%v after %d",
			num, got, math.Float32bits(got), ok, s.i, want, math.Float32bits(want), wantOK, wantN)
	}
	_, n, fast := parseFloat32(b)
	if fast && (!wantOK || n != wantN) {
		t.Errorf("%q: fast path took %d bytes, number takes %d (ok=%v)", num, n, wantN, wantOK)
	}
	return fast
}

// pythonRepr is Python's repr of a float, which json.dumps writes: the
// shortest digits that round-trip, positional for decimal exponents in
// [-4, 16) with at least one fraction digit, else d.ddde±XX.
func pythonRepr(x float64) string {
	s := strconv.FormatFloat(x, 'e', -1, 64)
	if exp, _ := strconv.Atoi(s[strings.IndexByte(s, 'e')+1:]); exp < -4 || exp >= 16 {
		return s
	}
	s = strconv.FormatFloat(x, 'f', -1, 64)
	if !strings.Contains(s, ".") {
		s += ".0"
	}
	return s
}

// unitVector is a random 768-d unit vector, as an embedder returns it.
func unitVector(rng *rand.Rand) []float32 {
	v := randVec(rng, 768)
	norm := 0.0
	for _, x := range v {
		norm += float64(x) * float64(x)
	}
	for i := range v {
		v[i] = float32(float64(v[i]) / math.Sqrt(norm))
	}
	return v
}

// TestParseFloat32MatchesStrconv compares the scanner's float32 with
// strconv bit for bit on ~2.5M numbers: the shortest float32 output of
// Go, the 17-digit and shortest float64 reprs Python writes for float32
// values, near-midpoint decimals, random digit strings and hand cases.
// It also bounds the share of client floats that fall back to strconv,
// so a fast path that declines everything fails.
func TestParseFloat32MatchesStrconv(t *testing.T) {
	for _, num := range []string{
		"16777217", "16777219", "33554434", "9007199254740993", "9007199254740992", "18014398509481985",
		"1e22", "1e23", "1e-22", "1e-23", "4e22", "-0", "0", "-0.0", "0e5", "0e99999", "-0e-99999", "0.000",
		"1234567890123456789", "9999999999999999999", "12345678901234567890", "0.00000000000000000001234567890123456789",
		"3.4028234e38", "3.4028235e38", "3.40282357e38", "1.1754944e-38", "1.17549435e-38", "1e-45", "1e-46", "1e400",
		"0.1", "1E+2", "1e-07", "5e-1", "0.5000000298023224", "0.50000002980232238769531250",
		"-", "01", "1.", "1e", "1e+", ".5", "+1", "-x", "1.5e+3x", "12345678.12345678e1",
	} {
		checkFloat32(t, num)
	}

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200000; i++ {
		var v float32
		if i%2 == 0 {
			if v = math.Float32frombits(rng.Uint32()); math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				continue
			}
		} else {
			v = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(31)-15)))
		}
		x := float64(v)
		nums := []string{
			strconv.FormatFloat(x, 'f', -1, 32),
			strconv.FormatFloat(x, 'e', -1, 32),
			strconv.FormatFloat(x, 'g', 17, 64),
			pythonRepr(x),
		}
		// The float32 midpoint above v, exactly and as decimals of 9 to
		// 19 digits on either side of it.
		if up := math.Nextafter32(v, float32(math.Inf(1))); !math.IsInf(float64(up), 0) {
			mid := (x + float64(up)) / 2
			nums = append(nums, strconv.FormatFloat(mid, 'e', -1, 64),
				strconv.FormatFloat(math.Nextafter(mid, math.Inf(-1)), 'g', 17, 64),
				strconv.FormatFloat(math.Nextafter(mid, math.Inf(1)), 'g', 17, 64))
			for _, prec := range []int{8, 15, 16, 17, 18} {
				nums = append(nums, strconv.FormatFloat(mid, 'e', prec, 64))
			}
		}
		for _, num := range nums {
			checkFloat32(t, num)
		}
	}
	for i := 0; i < 200000; i++ {
		d := make([]byte, 1+rng.Intn(21))
		for j := range d {
			d[j] = byte('0' + rng.Intn(10))
		}
		if d[0] == '0' && len(d) > 1 {
			d[0] = byte('1' + rng.Intn(9))
		}
		num := string(d)
		if p := rng.Intn(len(d) + 1); p > 0 && p < len(d) {
			num = num[:p] + "." + num[p:]
		} else if p == 0 {
			num = "0." + num
		}
		if rng.Intn(2) == 0 {
			num += fmt.Sprintf("e%d", rng.Intn(61)-30)
		}
		checkFloat32(t, num)
	}
	if t.Failed() {
		return
	}

	// The share of the floats in client bodies the fast path answers:
	// json.Marshal of []float32, and json.dumps(v.tolist()) of a float32
	// array (the float64 repr of each element).
	var marshalled, python, fastM, fastP int
	for range 100 {
		v := unitVector(rng)
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, num := range strings.Split(strings.Trim(string(raw), "[]"), ",") {
			marshalled++
			if checkFloat32(t, num) {
				fastM++
			}
		}
		for _, x := range v {
			python++
			if checkFloat32(t, pythonRepr(float64(x))) {
				fastP++
			}
		}
	}
	for _, c := range []struct {
		name       string
		fast, runs int
	}{{"json.Marshal", fastM, marshalled}, {"json.dumps", fastP, python}} {
		t.Logf("%s floats: %d of %d on the fast path", c.name, c.fast, c.runs)
		if c.fast*100 < c.runs*99 {
			t.Errorf("%s floats: only %d of %d on the fast path, want ≥ 99 %%", c.name, c.fast, c.runs)
		}
	}
}

func postRaw(t *testing.T, h http.Handler, path, body string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

func matchIDs(t *testing.T, body string) []int64 {
	t.Helper()
	var sr SearchResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	ids := make([]int64, len(sr.Matches))
	for i, m := range sr.Matches {
		ids[i] = m.ID
	}
	return ids
}

// TestDeclinedBodiesAnswerAsBefore sends one body of each decline class
// through the handler. The rejected ones must get the status and the
// exact error body a strict json.Decoder over the request gave before
// the fast scan existed; the ones encoding/json accepts must search as
// the plain spelling of the same request does. All go down the std path.
func TestDeclinedBodiesAnswerAsBefore(t *testing.T) {
	eng, queries, _ := testEngine(t, 500)
	s := New(eng, Config{})
	defer s.Close()
	h := s.Handler()

	raw, err := json.Marshal(searchBody(queries[0]))
	if err != nil {
		t.Fatal(err)
	}
	plain := string(raw) // {"vectors":{...},"k":3}
	code, body := postRaw(t, h, "/v1/search", plain)
	if code != http.StatusOK {
		t.Fatalf("plain search: %d %s", code, body)
	}
	want := matchIDs(t, body)

	cases := []struct {
		name, body string
		accepted   bool // by encoding/json
	}{
		{"escaped key", strings.Replace(plain, `"vectors"`, `"\u0076ectors"`, 1), true},
		{"null", strings.Replace(plain, `"k":3`, `"k":3,"weights":null`, 1), true},
		{"duplicate key", strings.Replace(plain, `{"vectors"`, `{"k":1,"vectors"`, 1), true},
		{"unknown field", strings.Replace(plain, `"k":3`, `"k":3,"kk":1`, 1), false},
		{"trailing data", plain + `{}`, false},
		{"1e400", strings.Replace(plain, `"k":3`, `"k":3,"weights":{"image":1e400}`, 1), false},
		{`"k":1.5`, strings.Replace(plain, `"k":3`, `"k":1.5`, 1), false},
	}
	for i, tc := range cases {
		if tc.body == plain {
			t.Fatalf("%s: the plain body has nothing to replace: %s", tc.name, plain)
		}
		// The parent's decodeJSON, verbatim but for the reader.
		dec := json.NewDecoder(strings.NewReader(tc.body))
		dec.DisallowUnknownFields()
		var req SearchRequest
		err := dec.Decode(&req)
		if err == nil && dec.More() {
			err = errTrailingBody
		}
		if (err == nil) != tc.accepted {
			t.Fatalf("%s: encoding/json says %v", tc.name, err)
		}

		code, body := postRaw(t, h, "/v1/search", tc.body)
		if tc.accepted {
			if code != http.StatusOK || !reflect.DeepEqual(matchIDs(t, body), want) {
				t.Errorf("%s: %d %s, want the plain request's matches %v", tc.name, code, body, want)
			}
		} else {
			wantBody, _ := json.Marshal(ErrorResponse{Error: err.Error()})
			if code != http.StatusBadRequest || body != string(wantBody)+"\n" {
				t.Errorf("%s: %d %q, want 400 %q", tc.name, code, body, wantBody)
			}
		}
		if std := s.metrics.decodeStd.Load(); std != uint64(i+1) {
			t.Errorf("%s: must_decode_total{path=\"std\"} = %d after %d declined bodies", tc.name, std, i+1)
		}
	}
}

// TestClientBodiesTakeFastPath feeds all three endpoints the bodies the
// ladder, mustload and the smoke script send (json.Marshal output) and
// their json.dumps spelling: none may fall back to encoding/json.
func TestClientBodiesTakeFastPath(t *testing.T) {
	eng, _, _ := testEngine(t, 500)
	s := New(eng, Config{})
	defer s.Close()
	h := s.Handler()
	// Deletes name objects that exist, each once.
	cases := []wireCase{{"delete", `{"ids":[1,2]}`}, {"delete", `{"ids": [3, 4]}`}}
	for _, c := range marshalledBodies(t) {
		if c.path != "delete" {
			cases = append(cases, c, wireCase{c.path, pythonStyle(c.body)})
		}
	}
	for _, c := range cases {
		if code, reply := postRaw(t, h, "/v1/"+c.path, c.body); code != http.StatusOK {
			t.Errorf("%s %s: %d %s", c.path, c.body, code, reply)
		}
	}
	if fast, std := s.metrics.decodeFast.Load(), s.metrics.decodeStd.Load(); fast != uint64(len(cases)) || std != 0 {
		t.Errorf("decoded %d fast, %d std; want all %d fast", fast, std, len(cases))
	}
}

// TestOversizedBodyIs413 posts 33 MiB to /v1/insert over a real
// connection: the reply is 413, not 400, and the server closes the
// connection instead of reading the rest of the body.
func TestOversizedBodyIs413(t *testing.T) {
	_, ts, _, _ := testServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/insert", "application/json",
		bytes.NewReader(bytes.Repeat([]byte(" "), maxBodyBytes+1<<20)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || string(data) != `{"error":"http: request body too large"}`+"\n" {
		t.Errorf("oversized insert: %d %s", resp.StatusCode, data)
	}
	if !resp.Close {
		t.Error("connection not marked to close after an oversized body")
	}
}
