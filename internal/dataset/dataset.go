// Package dataset generates the multimodal object sets and query workloads
// used by every experiment in the MUST reproduction.
//
// The substitution for the paper's real datasets: every object carries
// one ground-truth *latent* vector per modality. Two families of
// generators mirror the paper's two dataset families:
//
//   - Semantic datasets (CelebA, MIT-States, Shopping, MS-COCO, CelebA+
//     analogues): queries are built as "reference content + attribute
//     modification", and a ground-truth object matching the composed
//     semantics is planted, along with reference-similar distractors with
//     the wrong attribute and attribute-matching distractors with the
//     wrong content — exactly the failure structure of Fig. 3. Ground
//     truth is known by construction (k' = 1).
//
//   - Feature datasets (ImageText1M, AudioText1M, VideoText1M,
//     ImageText16M analogues): objects and queries are drawn from the same
//     distribution and ground truth is the exact top-k' under joint
//     similarity, computed by brute force in the experiment harness —
//     matching the semi-synthetic protocol of §VIII-A.
//
// Generation is separated from encoding so one raw dataset can be encoded
// with many encoder combinations (the per-encoder rows of Tab. III–VI).
package dataset

import (
	"fmt"

	"must/internal/encoder"
	"must/internal/vec"
)

// Raw is a generated dataset before encoding: ground-truth latents only.
type Raw struct {
	// Name labels the dataset in reports, e.g. "MITStatesSim".
	Name string
	// M is the number of modalities per object.
	M int
	// ContentDim and AttrDim are the latent dimensions of the content and
	// attribute modalities.
	ContentDim, AttrDim int
	// Objects holds the object latents; index = object ID.
	Objects []RawObject
	// Queries holds the query workload.
	Queries []RawQuery
}

// RawObject is one multimodal object's ground-truth latents.
type RawObject struct {
	// Latents has one latent vector per modality, in the dataset's
	// modality layout (0 = target content, 1 = attribute, then optional
	// second-content and view modalities).
	Latents [][]float32
}

// RawQuery is one multimodal query's ground-truth latents.
type RawQuery struct {
	// Latents holds the per-modality query inputs: Latents[0] is the
	// reference content shown to the target-modality encoder, Latents[1]
	// the attribute modification, and any further entries follow the
	// dataset's modality layout.
	Latents [][]float32
	// Composed is the ground-truth composed content latent — what the
	// multimodal encoder Φ is asked to embed.
	Composed []float32
	// GroundTruth lists the IDs of true result objects (empty for feature
	// datasets until the harness computes exact top-k').
	GroundTruth []int
}

// EncoderSet selects the encoders for one experiment row.
type EncoderSet struct {
	// Unimodal has one encoder per modality, aligned with the dataset's
	// modality layout.
	Unimodal []encoder.Encoder
	// Composition, if non-nil, replaces the query's modality-0 vector
	// with Φ(q0,...,q_{t-1}) (Option 2 in Fig. 4(f)). Objects always use
	// Unimodal[0].
	Composition encoder.MultiEncoder
}

// Label renders the encoder combination the way the paper's tables do,
// e.g. "CLIP+LSTM" or "ResNet50+GRU+ResNet50".
func (s EncoderSet) Label() string {
	out := ""
	for i, e := range s.Unimodal {
		name := e.Name()
		if i == 0 && s.Composition != nil {
			name = s.Composition.Name()
		}
		if i > 0 {
			out += "+"
		}
		out += name
	}
	return out
}

// Encoded is a dataset after embedding with a particular EncoderSet.
type Encoded struct {
	// Name and M are copied from the raw dataset.
	Name string
	M    int
	// EncoderLabel records which encoder combination produced the
	// vectors.
	EncoderLabel string
	// Dims holds the per-modality embedding dimensions.
	Dims []int
	// Objects holds one multi-vector per object; index = object ID.
	Objects []vec.Multi
	// Queries holds the encoded query workload.
	Queries []EncodedQuery
}

// EncodedQuery is one query after embedding.
type EncodedQuery struct {
	// Vectors holds the per-modality query vectors. Vectors[0] is either
	// ϕ0(q0) or Φ(q0,...,q_{t-1}) depending on the EncoderSet.
	Vectors vec.Multi
	// GroundTruth lists the IDs of true result objects.
	GroundTruth []int
}

// Encode embeds raw with the given encoder set. It validates that the set
// covers every modality and that encoder latent dimensions line up with
// the dataset layout (via the encoders' own checks).
func Encode(raw *Raw, set EncoderSet) (*Encoded, error) {
	if len(set.Unimodal) != raw.M {
		return nil, fmt.Errorf("dataset: %d unimodal encoders for %d modalities", len(set.Unimodal), raw.M)
	}
	enc := &Encoded{
		Name:         raw.Name,
		M:            raw.M,
		EncoderLabel: set.Label(),
		Dims:         make([]int, raw.M),
	}
	for i, e := range set.Unimodal {
		enc.Dims[i] = e.Dim()
	}
	enc.Objects = make([]vec.Multi, len(raw.Objects))
	parallelFor(len(raw.Objects), func(i int) {
		o := raw.Objects[i]
		mv := make(vec.Multi, raw.M)
		for j := 0; j < raw.M; j++ {
			mv[j] = set.Unimodal[j].Encode(o.Latents[j])
		}
		enc.Objects[i] = mv
	})
	enc.Queries = make([]EncodedQuery, len(raw.Queries))
	parallelFor(len(raw.Queries), func(i int) {
		q := raw.Queries[i]
		mv := make(vec.Multi, raw.M)
		for j := 0; j < raw.M; j++ {
			mv[j] = set.Unimodal[j].Encode(q.Latents[j])
		}
		if set.Composition != nil {
			mv[0] = set.Composition.EncodeComposed(q.Composed)
		}
		enc.Queries[i] = EncodedQuery{Vectors: mv, GroundTruth: q.GroundTruth}
	})
	return enc, nil
}
