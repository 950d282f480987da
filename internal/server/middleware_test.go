package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"must"
)

// replyNames are the by_modality keys of fuzzed replies, quoted in
// advance as a server quotes its schema: HTML characters, U+2028,
// invalid UTF-8 and the empty name among them.
var replyNames = []string{"image", "text", "<a&b>", "\u2028x\u2029", "\xffbad", ""}

// fuzzReply builds a reply from fuzzer values. sims holds the matches:
// per match a mask byte choosing which replyNames its by_modality has
// (bit 6: an empty map), the similarity's bits, then each value's bits.
// flags: 1 nil matches, 2 cached, 4 partial, 8 extra as one more
// by_modality key, 16 two shard errors, 32 an empty shard_errors.
func fuzzReply(flags uint8, times [4]float64, batch int, sims []byte, extra string) *SearchResponse {
	r := &SearchResponse{
		QueryTimeMS: times[0], EngineTimeMS: times[1], DecodeMS: times[2], QueueMS: times[3],
		BatchSize: batch, Cached: flags&2 != 0, Partial: flags&4 != 0,
		Stats: SearchWork{FullEvals: batch, PartialSkips: -batch, Hops: len(sims)},
	}
	if flags&1 == 0 {
		r.Matches = []SearchMatch{}
	}
	f32 := func() float32 {
		var x [4]byte
		sims = sims[copy(x[:], sims):]
		return math.Float32frombits(binary.LittleEndian.Uint32(x[:]))
	}
	for len(sims) > 0 && len(r.Matches) < 64 {
		mask := sims[0]
		sims = sims[1:]
		m := SearchMatch{ID: int64(len(sims)) - 1<<40, Similarity: f32()}
		if mask&0x40 != 0 || flags&8 != 0 {
			m.ByModality = map[string]float32{}
		}
		for j, name := range replyNames {
			if mask>>j&1 != 0 {
				if m.ByModality == nil {
					m.ByModality = map[string]float32{}
				}
				m.ByModality[name] = f32()
			}
		}
		if flags&8 != 0 {
			m.ByModality[extra] = float32(len(extra))
		}
		r.Matches = append(r.Matches, m)
	}
	switch {
	case flags&16 != 0:
		r.ShardErrors = []must.ShardError{{Shard: batch, Err: extra}, {Shard: 1, Err: "<script>&\u2028\xff"}}
	case flags&32 != 0:
		r.ShardErrors = []must.ShardError{}
	}
	return r
}

// matchBytes is one match of fuzzReply's sims.
func matchBytes(mask byte, vals ...float32) []byte {
	b := []byte{mask}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// FuzzEncodeSearchResponse is the differential test of the search reply
// encoder against json.NewEncoder(w).Encode, byte for byte, failure
// included.
func FuzzEncodeSearchResponse(f *testing.F) {
	below := func(x float64) float64 { return math.Nextafter(x, 0) }
	below32 := func(x float32) float32 { return math.Nextafter32(x, 0) }
	type seed struct {
		flags uint8
		times [4]float64
		batch int
		sims  []byte
		extra string
	}
	for _, s := range []seed{
		// A served search and a cache hit, as the handler builds them.
		{0, [4]float64{0.131, 0.0124, 0.083, 0.002}, 1,
			append(matchBytes(3, 0.97, 0.61, 0.36), matchBytes(3, -0.25, -0.5, 0.25)...), ""},
		{2, [4]float64{0.09, 0.51, 0.07, 0}, 0, matchBytes(3, 1, 0.5, 0.5), ""},
		// Both e-notation cutoffs, from either side, in both widths.
		{0, [4]float64{1e-6, below(1e-6), 1e21, below(1e21)}, 7,
			append(matchBytes(3, 1e-6, below32(1e-6), 1e21), matchBytes(3, below32(1e21), -1e-7, 1e-45)...), ""},
		{0, [4]float64{-1e-7, 1e-300, 1.5e300, math.MaxFloat64}, 0, matchBytes(1, math.MaxFloat32, -math.SmallestNonzeroFloat32), ""},
		// Zero omitempty fields, nil matches and empty maps.
		{1, [4]float64{0, 0, math.Copysign(0, -1), 0}, 0, nil, ""},
		{0, [4]float64{-1, -2, -0.5, -0.25}, -1, nil, ""},
		{32, [4]float64{0, 0, 0, 0}, 0, matchBytes(0x40, 0), ""},
		// Degraded, with shard errors and a key outside the quoted names.
		{4 | 8 | 16, [4]float64{2, 1, 0.5, 0.25}, 3, matchBytes(0x3f, 1, 2, 3, 4, 5, 6, 7), "<\u2028\xff>"},
		{8, [4]float64{1, 1, 1, 1}, 1, matchBytes(3, 1, 2, 3), "image"},
		// encoding/json refuses NaN and infinities.
		{0, [4]float64{math.NaN(), 1, 1, 1}, 0, nil, ""},
		{0, [4]float64{1, 1, 1, 1}, 0, matchBytes(1, 1, float32(math.Inf(-1))), ""},
	} {
		f.Add(s.flags, s.times[0], s.times[1], s.times[2], s.times[3], s.batch, s.sims, s.extra)
	}
	keys := quoteKeys(replyNames)
	f.Fuzz(func(t *testing.T, flags uint8, query, engine, decode, queue float64, batch int, sims []byte, extra string) {
		r := fuzzReply(flags, [4]float64{query, engine, decode, queue}, batch, sims, extra)
		var want bytes.Buffer
		err := json.NewEncoder(&want).Encode(r)
		got, ok := appendSearchResponse(nil, r, keys)
		if ok != (err == nil) {
			t.Fatalf("encoder ok=%v, encoding/json error %v, for %+v", ok, err, r)
		}
		if ok && !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("reply differs from encoding/json's\ngot  %s\nwant %s", got, want.Bytes())
		}
	})
}
