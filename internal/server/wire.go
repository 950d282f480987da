package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// maxBodyBytes bounds request bodies (a 1M-object bulk insert belongs
// in the bulk-load CLI, not one HTTP request).
const maxBodyBytes = 32 << 20

// maxPooledBody is the largest body buffer kept for reuse: it holds a
// CLIP-scale search (~10 KB) several times over, while the buffer of a
// rare bulk insert is left to the garbage collector instead of pinning
// megabytes per pool slot.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads the whole request body, at most maxBodyBytes of it,
// into a pooled buffer the caller hands back with releaseBody. On
// failure it writes the error reply and ok is false.
func readBody(w http.ResponseWriter, r *http.Request) (buf *bytes.Buffer, ok bool) {
	// MaxBytesReader marks the connection to close after an oversized
	// body only on net/http's own writer, not on a wrapper around it.
	mw := w
	if rec, isRec := w.(*statusRecorder); isRec {
		mw = rec.ResponseWriter
	}
	buf = bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if n := min(r.ContentLength, maxBodyBytes); n > 0 {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF without growing
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(mw, r.Body, maxBodyBytes)); err != nil {
		releaseBody(buf)
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, err.Error())
		return nil, false
	}
	return buf, true
}

func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// decodeRequest reads the request body once and decodes it with
// decodeBody. On failure the error reply has been written and ok is
// false.
func decodeRequest[T any](s *Server, w http.ResponseWriter, r *http.Request, scan func([]byte) (T, bool)) (req T, ok bool) {
	start := time.Now()
	buf, ok := readBody(w, r)
	if !ok {
		return req, false
	}
	defer releaseBody(buf)
	req, _, ok = decodeBody(s, w, buf.Bytes(), start, scan)
	return req, ok
}

// decodeBody decodes a request body with scan, the request type's fast
// scanner. A body the scanner declines goes to decodeStd over the same
// bytes, so what is rejected, and with which message, is always
// encoding/json's decision. On failure the error reply has been written
// and ok is false. took runs from start, when the body read began, so
// it covers read and parse.
func decodeBody[T any](s *Server, w http.ResponseWriter, body []byte, start time.Time, scan func([]byte) (T, bool)) (req T, took time.Duration, ok bool) {
	req, fast := scan(body)
	var err error
	if !fast {
		var zero T // the scan may have filled fields before it declined
		req = zero
		err = decodeStd(body, &req)
	}
	took = time.Since(start)
	s.metrics.ObserveDecode(fast, took)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return req, 0, false
	}
	return req, took, true
}

// decodeStd strictly decodes one JSON document with encoding/json:
// unknown fields and trailing garbage are errors, so client typos fail
// loudly instead of silently searching with defaults.
func decodeStd(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errTrailingBody
	}
	return nil
}

var errTrailingBody = errors.New("request body has trailing data after the JSON document")

// scanner is one forward pass over a request body in the plain JSON
// grammar clients actually send: objects keyed by the request struct's
// exact field names, numbers, true/false, arrays of numbers. Every
// method reports whether the input stayed inside that grammar; false is
// final and means "decline", never "reject" — an escape or non-ASCII
// byte in a key, null, a duplicate or unknown key, a wrong type, an
// out-of-range number, a syntax error and trailing data all decline.
// The contract with decodeStd is one-sided: whatever the scanner
// accepts, encoding/json accepts with a reflect.DeepEqual value
// (FuzzDecodeRequest). Values never alias the body.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes c if it comes next.
func (s *scanner) eat(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports that only whitespace is left.
func (s *scanner) end() bool {
	s.skipSpace()
	return s.i == len(s.b)
}

// key consumes `"name":` and returns name as a view into the body.
func (s *scanner) key() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			k := s.b[start:s.i]
			s.i++
			return k, s.eat(':')
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// object consumes {"key":value,...}; member consumes each value.
func (s *scanner) object(member func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		k, ok := s.key()
		if !ok || !member(k) {
			return false
		}
		if !s.eat(',') {
			return s.eat('}')
		}
	}
}

// digits returns the index after the run of digits at b[i:], and
// whether there was at least one.
func digits(b []byte, i int) (int, bool) {
	start := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i, i > start
}

// number consumes one number of the JSON grammar (strconv alone would
// also take "+1", ".5", "0x1p-2", "Inf") and returns its text; integer
// reports that it has no fraction and no exponent.
func (s *scanner) number() (text []byte, integer, ok bool) {
	s.skipSpace()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i, ok = digits(b, i); !ok {
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		if i, ok = digits(b, i+1); !ok {
			return nil, false, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i, ok = digits(b, i); !ok {
			return nil, false, false
		}
	}
	text, s.i = b[s.i:i], i
	return text, integer, true
}

// float32 returns the bits strconv.ParseFloat(text, 32) gives, the call
// encoding/json makes for a float32 field: parseFloat32 answers nearly
// every number a client sends, and strconv itself the rest.
func (s *scanner) float32() (float32, bool) {
	s.skipSpace()
	if f, n, ok := parseFloat32(s.b[s.i:]); ok {
		s.i += n
		return f, true
	}
	text, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(text), 32)
	return float32(f), err == nil
}

// pow10 are the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseFloat32 reads the number at the start of b in the grammar number
// enforces and returns its float32 and length, or declines (ok false) a
// number whose bits it cannot prove equal to strconv.ParseFloat's.
//
// The number is m·10^e with m its significant digits, at most 19 of
// them. For m ≤ 2^53 and |e| ≤ 22 both float64(m) and 10^|e| are exact,
// so one multiply or divide is m·10^e correctly rounded to float64.
// Rounding that again to float32 equals rounding once unless the float64
// is a float32 midpoint: midpoints are float64s and rounding is
// monotone, so a value and its float64 lie on the same side of every
// midpoint, except when the float64 is one — and then this declines. A
// longer m (Python's 17-digit repr of a float32) is cut to m' < 2^53:
// the value lies in [m'·10^e', (m'+1)·10^e'), so when both ends round
// to one float32 without touching a midpoint, so does the value.
// Every nonzero result lands in float32's normal range: m·10^e is at
// least 1e-22 and below 2^53·1e22.
func parseFloat32(b []byte) (f float32, n int, ok bool) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i = 1
	}
	var m uint64
	e := 0
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		j := i
		if i, m, ok = mantissa(b, i, 0); !ok || i == j {
			return 0, 0, false
		}
	}
	if i < len(b) && b[i] == '.' {
		j := i + 1
		if i, m, ok = mantissa(b, j, m); !ok || i == j {
			return 0, 0, false
		}
		e = j - i
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j, x := i, 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if x < 1e4 { // past any exponent this accepts, and no overflow
				x = x*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return 0, 0, false
		}
		if eneg {
			x = -x
		}
		e += x
	}

	var v float64
	if m <= 1<<53 {
		v, ok = mulPow10(m, e)
		ok = ok && !midpoint32(v)
	} else {
		for m >= 1<<53 {
			m /= 10
			e++
		}
		hi, okHi := mulPow10(m+1, e)
		v, ok = mulPow10(m, e)
		ok = ok && okHi && !midpoint32(v) && !midpoint32(hi) && float32(v) == float32(hi)
	}
	if !ok {
		return 0, 0, false
	}
	f = float32(v)
	if neg {
		f = -f
	}
	return f, i, true
}

// mantissa folds the run of digits at b[i:] into m, eight at a time
// while they fit, and returns the index after the run; ok is false once
// m would pass 19 significant digits. Leading zeros leave m at 0.
func mantissa(b []byte, i int, m uint64) (int, uint64, bool) {
	for m < 1e11 && i+8 <= len(b) {
		v := binary.LittleEndian.Uint64(b[i:])
		if !eightDigits(v) {
			break
		}
		m = m*1e8 + digits8(v)
		i += 8
	}
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if m >= 1e18 {
			return i, m, false
		}
		m = m*10 + uint64(b[i]-'0')
	}
	return i, m, true
}

// eightDigits reports that all eight bytes of v are ASCII digits: each
// high nibble is 3, and adding 6 to its low nibble does not carry.
func eightDigits(v uint64) bool {
	return (v&0xF0F0F0F0F0F0F0F0)|((v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4 == 0x3333333333333333
}

// digits8 is the value of eight ASCII digits loaded little-endian: pairs,
// then quads, then the whole, by multiply-and-shift within the word.
func digits8(v uint64) uint64 {
	v -= 0x3030303030303030
	v = v*10 + v>>8
	return ((v&0x000000FF000000FF)*(100+1000000<<32) + (v>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
}

// mulPow10 is m·10^e rounded once to float64, when one exact operation
// gives it (m ≤ 2^53, |e| ≤ 22).
func mulPow10(m uint64, e int) (float64, bool) {
	switch {
	case e < -22 || e > 22:
		return 0, false
	case e < 0:
		return float64(m) / pow10[-e], true
	}
	return float64(m) * pow10[e], true
}

// midpoint32 reports that f, in float32's normal range, lies exactly
// halfway between two float32s: the 29 low mantissa bits float32 drops
// read 1000…0.
func midpoint32(f float64) bool { return math.Float64bits(f)&(1<<29-1) == 1<<28 }

// integer consumes a number without fraction or exponent that fits in
// bits, which is what encoding/json requires of an integer field.
func (s *scanner) integer(bits int) (int64, bool) {
	text, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(text), 10, bits)
	return n, err == nil
}

func (s *scanner) int64() (int64, bool) { return s.integer(64) }

func (s *scanner) int() (int, bool) {
	n, ok := s.integer(strconv.IntSize)
	return int(n), ok
}

func (s *scanner) bool() (v, ok bool) {
	s.skipSpace()
	rest := s.b[s.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
		return false, true
	}
	return false, false
}

// flatLen is the element count of the array of numbers whose '[' was
// just consumed: the commas before its ']' plus one, or 0 when empty.
func (s *scanner) flatLen() int {
	s.skipSpace()
	end := bytes.IndexByte(s.b[s.i:], ']')
	if end <= 0 {
		return 0
	}
	return bytes.Count(s.b[s.i:s.i+end], []byte{','}) + 1
}

// scanSlice consumes [elem,...] into a slice that is empty but not nil
// for "[]", as encoding/json leaves it. flat says the elements are
// numbers, which lets the slice be sized exactly before it is filled.
func scanSlice[T any](s *scanner, flat bool, elem func() (T, bool)) ([]T, bool) {
	if !s.eat('[') {
		return nil, false
	}
	n := 0
	if flat {
		n = s.flatLen()
	}
	out := make([]T, 0, n)
	if s.eat(']') {
		return out, true
	}
	for {
		v, ok := elem()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if !s.eat(',') {
			return out, s.eat(']')
		}
	}
}

// scanMap consumes {"name":elem,...} into a map that is empty but not
// nil for "{}", as encoding/json leaves it.
func scanMap[T any](s *scanner, elem func() (T, bool)) (map[string]T, bool) {
	m := map[string]T{}
	return m, s.object(func(k []byte) bool {
		if _, dup := m[string(k)]; dup {
			return false
		}
		v, ok := elem()
		m[string(k)] = v
		return ok
	})
}

func (s *scanner) floats() ([]float32, bool) { return scanSlice(s, true, s.float32) }

func (s *scanner) vectors() (map[string][]float32, bool) { return scanMap(s, s.floats) }

// scanStruct consumes the top-level object of a request: field decodes
// the value of a known key and returns that key's bit, or 0 for a key
// the request type does not have.
func scanStruct(b []byte, field func(s *scanner, key []byte) (bit uint, ok bool)) bool {
	s := &scanner{b: b}
	var seen uint
	return s.object(func(k []byte) bool {
		bit, ok := field(s, k)
		dup := seen&bit != 0
		seen |= bit
		return ok && bit != 0 && !dup
	}) && s.end()
}

func scanSearch(b []byte) (req SearchRequest, ok bool) {
	ok = scanStruct(b, func(s *scanner, key []byte) (bit uint, ok bool) {
		switch string(key) {
		case "vectors":
			bit = 1 << 0
			req.Vectors, ok = s.vectors()
		case "k":
			bit = 1 << 1
			req.K, ok = s.int()
		case "l":
			bit = 1 << 2
			req.L, ok = s.int()
		case "weights":
			bit = 1 << 3
			req.Weights, ok = scanMap(s, s.float32)
		case "patience":
			bit = 1 << 4
			req.Patience, ok = s.int()
		case "disable_optimization":
			bit = 1 << 5
			req.DisableOptimization, ok = s.bool()
		case "timeout_ms":
			bit = 1 << 6
			req.TimeoutMS, ok = s.int()
		case "no_cache":
			bit = 1 << 7
			req.NoCache, ok = s.bool()
		}
		return bit, ok
	})
	return req, ok
}

func scanInsert(b []byte) (req InsertRequest, ok bool) {
	ok = scanStruct(b, func(s *scanner, key []byte) (bit uint, ok bool) {
		switch string(key) {
		case "vectors":
			bit = 1 << 0
			req.Vectors, ok = s.vectors()
		case "objects":
			bit = 1 << 1
			req.Objects, ok = scanSlice(s, false, s.vectors)
		}
		return bit, ok
	})
	return req, ok
}

func scanDelete(b []byte) (req DeleteRequest, ok bool) {
	ok = scanStruct(b, func(s *scanner, key []byte) (bit uint, ok bool) {
		if string(key) == "ids" {
			bit = 1 << 0
			req.IDs, ok = scanSlice(s, true, s.int64)
		}
		return bit, ok
	})
	return req, ok
}
