// Package encoder provides the simulated embedding pipeline that stands in
// for the paper's trained encoders (ResNet17/50, LSTM, Transformer, GRU,
// ordinal Encoding, TIRG, CLIP, MPC — Appendix B of the paper).
//
// The substitution: every object and query carries a ground-truth
// *latent* vector per modality. An encoder is a fixed random projection
// from the latent space into that encoder's embedding space, followed by
// additive Gaussian noise whose standard
// deviation models the encoder's quality — a better encoder (the paper's
// CLIP, ResNet50) has lower noise than a worse one (TIRG, ResNet17). Noise
// is a deterministic function of the content, so encoding the same content
// twice yields the identical vector, exactly as a frozen neural encoder
// would.
//
// Multimodal composition encoders (CLIPSim, TIRGSim, MPCSim) embed a
// *composed* latent into the target modality's embedding space — the
// paper's requirement that Φ(q0,...,q_{t-1}) share ϕ0's vector space —
// with an extra "modality gap" noise term on top of the target encoder's
// own error.
package encoder

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"must/internal/vec"
)

// Encoder embeds a single modality's latent content into a normalized
// high-dimensional vector, the ϕ_i(·) of the paper.
type Encoder interface {
	// Name identifies the encoder (e.g. "ResNet50Sim") in reports.
	Name() string
	// Dim is the output embedding dimension.
	Dim() int
	// Encode maps the latent content to a unit vector. It is
	// deterministic: equal latents produce equal embeddings.
	Encode(latent []float32) []float32
}

// MultiEncoder embeds an already-composed latent (target content fused
// with auxiliary modifications) into the target modality's embedding
// space, the Φ(·,...,·) of the paper.
type MultiEncoder interface {
	Name() string
	Dim() int
	// EncodeComposed maps the composed latent to a unit vector in the
	// same space as the paired target-modality Encoder.
	EncodeComposed(composed []float32) []float32
}

// Spec configures a simulated unimodal encoder.
type Spec struct {
	// Name is the report label, e.g. "ResNet50".
	Name string
	// LatentDim is the input latent dimension this encoder accepts.
	LatentDim int
	// Dim is the output embedding dimension.
	Dim int
	// Sigma is the per-coordinate Gaussian noise the encoder adds before
	// re-normalization; larger means a worse encoder.
	Sigma float64
	// Seed fixes the projection matrix and the content-noise keying.
	Seed int64
}

// Sim is a simulated unimodal encoder: a fixed random projection plus
// content-keyed Gaussian noise.
type Sim struct {
	spec Spec
	proj []float32 // Dim × LatentDim, row-major
}

// New builds a simulated encoder from spec.
func New(spec Spec) *Sim {
	if spec.LatentDim <= 0 || spec.Dim <= 0 {
		panic(fmt.Sprintf("encoder: invalid spec dims %d -> %d", spec.LatentDim, spec.Dim))
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	return &Sim{
		spec: spec,
		proj: vec.RandProjection(rng, spec.Dim, spec.LatentDim),
	}
}

// Name implements Encoder.
func (s *Sim) Name() string { return s.spec.Name }

// Dim implements Encoder.
func (s *Sim) Dim() int { return s.spec.Dim }

// Sigma reports the configured noise level.
func (s *Sim) Sigma() float64 { return s.spec.Sigma }

// Encode implements Encoder. The noise RNG is seeded from a hash of the
// latent content combined with the encoder seed, making the embedding a
// pure function of (encoder, content).
func (s *Sim) Encode(latent []float32) []float32 {
	if len(latent) != s.spec.LatentDim {
		panic(fmt.Sprintf("encoder %s: latent dim %d, want %d", s.spec.Name, len(latent), s.spec.LatentDim))
	}
	out := vec.ApplyProjection(s.proj, s.spec.Dim, latent)
	if s.spec.Sigma == 0 {
		return out
	}
	noise := rand.New(rand.NewSource(contentSeed(latent, s.spec.Seed)))
	return vec.AddGaussianNoise(noise, out, s.spec.Sigma)
}

// MultiSpec configures a simulated multimodal composition encoder.
type MultiSpec struct {
	// Name is the report label, e.g. "CLIP".
	Name string
	// GapSigma is the extra "modality gap" noise added on top of the
	// target encoder's projection; it models the joint-embedding error
	// the paper discusses (§I, §IV).
	GapSigma float64
	// FailProb is the probability that a composition misses entirely —
	// the heavy tail of joint-embedding error that keeps real JE top-1
	// recall below ~0.4 (§I: "even with the best joint embedding
	// approach, the top-1 recall rate barely surpasses 0.4"). Failure is
	// a deterministic function of the content.
	FailProb float64
	// FailSigma is the noise level of failed compositions (default 2.5).
	FailSigma float64
	// Seed keys the gap-noise stream.
	Seed int64
}

// MultiSim is a simulated multimodal encoder. It shares the projection of
// a target-modality Sim — so its output lives in the same vector space as
// ϕ0, per §V — but applies its own, larger noise.
type MultiSim struct {
	spec   MultiSpec
	target *Sim
}

// NewMulti builds a composition encoder on top of the target modality's
// unimodal encoder.
func NewMulti(spec MultiSpec, target *Sim) *MultiSim {
	if target == nil {
		panic("encoder: NewMulti requires a target encoder")
	}
	return &MultiSim{spec: spec, target: target}
}

// Name implements MultiEncoder.
func (m *MultiSim) Name() string { return m.spec.Name }

// Dim implements MultiEncoder.
func (m *MultiSim) Dim() int { return m.target.Dim() }

// GapSigma reports the configured modality-gap noise.
func (m *MultiSim) GapSigma() float64 { return m.spec.GapSigma }

// EncodeComposed implements MultiEncoder.
func (m *MultiSim) EncodeComposed(composed []float32) []float32 {
	out := vec.ApplyProjection(m.target.proj, m.target.spec.Dim, composed)
	sigma := math.Hypot(m.target.spec.Sigma, m.spec.GapSigma)
	noise := rand.New(rand.NewSource(contentSeed(composed, m.spec.Seed)))
	if m.spec.FailProb > 0 && noise.Float64() < m.spec.FailProb {
		failSigma := m.spec.FailSigma
		if failSigma == 0 {
			failSigma = 2.5
		}
		sigma = math.Hypot(sigma, failSigma)
	}
	if sigma == 0 {
		return out
	}
	return vec.AddGaussianNoise(noise, out, sigma)
}

// contentSeed derives a deterministic RNG seed from the content bits and
// the encoder's own seed.
func contentSeed(latent []float32, encoderSeed int64) int64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, x := range latent {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(x))
		h.Write(buf[:])
	}
	var sb [8]byte
	binary.LittleEndian.PutUint64(sb[:], uint64(encoderSeed))
	h.Write(sb[:])
	return int64(h.Sum64())
}
