package dataset

import (
	"math"
	"testing"

	"must/internal/encoder"
	"must/internal/vec"
)

// smallSemantic returns a tiny semantic config for fast tests.
func smallSemantic() SemanticConfig {
	return SemanticConfig{
		Name:               "TinySem",
		Seed:               1,
		NumObjects:         300,
		NumQueries:         40,
		ContentDim:         16,
		AttrDim:            8,
		NumAttrs:           10,
		AttrJitter:         0.2,
		ComposeAlpha:       0.9,
		RefDistractors:     2,
		RefDistractorNoise: 0.3,
	}
}

func tinyEncoderSet(raw *Raw, withComposition bool) EncoderSet {
	target := encoder.NewResNet50(raw.ContentDim, 7)
	set := EncoderSet{Unimodal: []encoder.Encoder{target, encoder.NewLSTM(raw.AttrDim, 7)}}
	if withComposition {
		set.Composition = encoder.NewCLIP(target, 7)
	}
	return set
}

func TestGenerateSemanticShape(t *testing.T) {
	raw, err := GenerateSemantic(smallSemantic())
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Objects) != 300 || len(raw.Queries) != 40 {
		t.Fatalf("got %d objects, %d queries", len(raw.Objects), len(raw.Queries))
	}
	if raw.M != 2 {
		t.Fatalf("M = %d, want 2", raw.M)
	}
	for i, o := range raw.Objects {
		if len(o.Latents) != 2 {
			t.Fatalf("object %d has %d latents", i, len(o.Latents))
		}
		if len(o.Latents[0]) != 16 || len(o.Latents[1]) != 8 {
			t.Fatalf("object %d latent dims %d/%d", i, len(o.Latents[0]), len(o.Latents[1]))
		}
	}
	for i, q := range raw.Queries {
		if len(q.GroundTruth) != 1 {
			t.Fatalf("query %d has %d ground truths", i, len(q.GroundTruth))
		}
		if q.GroundTruth[0] < 0 || q.GroundTruth[0] >= len(raw.Objects) {
			t.Fatalf("query %d ground truth %d out of range", i, q.GroundTruth[0])
		}
	}
}

func TestGenerateSemanticDeterministic(t *testing.T) {
	a, err := GenerateSemantic(smallSemantic())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSemantic(smallSemantic())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Objects {
		for j := range a.Objects[i].Latents {
			for k := range a.Objects[i].Latents[j] {
				if a.Objects[i].Latents[j][k] != b.Objects[i].Latents[j][k] {
					t.Fatal("semantic generation not deterministic")
				}
			}
		}
	}
}

// The planted ground-truth object must be the best match for its query
// in latent space under the composed semantics: closer to the composed
// latent than any background object, and attribute-matching.
func TestGroundTruthIsBestLatentMatch(t *testing.T) {
	raw, err := GenerateSemantic(smallSemantic())
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range raw.Queries {
		gt := q.GroundTruth[0]
		gtSim := vec.Dot(q.Composed, raw.Objects[gt].Latents[0])
		better := 0
		for oi, o := range raw.Objects {
			if oi == gt {
				continue
			}
			if vec.Dot(q.Composed, o.Latents[0]) > gtSim {
				better++
			}
		}
		if better > 0 {
			t.Errorf("query %d: %d objects beat the ground truth in composed-latent similarity (gtSim=%v)", qi, better, gtSim)
		}
	}
}

// Reference distractors must be closer to the raw reference latent than
// the ground-truth object is — that is what breaks MR's image stream.
func TestReferenceDistractorsConfuseTargetModality(t *testing.T) {
	cfg := smallSemantic()
	raw, err := GenerateSemantic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	confused := 0
	for qi, q := range raw.Queries {
		gt := q.GroundTruth[0]
		ref := q.Latents[0]
		gtSim := vec.Dot(ref, raw.Objects[gt].Latents[0])
		// Distractors are planted right after the ground truth.
		for d := 1; d <= cfg.RefDistractors; d++ {
			if vec.Dot(ref, raw.Objects[gt+d].Latents[0]) > gtSim {
				confused++
			}
		}
		_ = qi
	}
	// With RefDistractorNoise < ComposeAlpha the distractors should beat
	// the ground truth for nearly every query.
	want := len(raw.Queries) * cfg.RefDistractors
	if confused < want*9/10 {
		t.Errorf("only %d/%d reference distractors beat the ground truth in reference similarity", confused, want)
	}
}

func TestGenerateSemanticValidation(t *testing.T) {
	cfg := smallSemantic()
	cfg.NumObjects = 10 // cannot hold 40 queries × 3 planted objects
	if _, err := GenerateSemantic(cfg); err == nil {
		t.Error("undersized object set did not error")
	}
	cfg = smallSemantic()
	cfg.ContentDim = 0
	if _, err := GenerateSemantic(cfg); err == nil {
		t.Error("zero content dim did not error")
	}
	cfg = smallSemantic()
	cfg.NumQueries = 0
	if _, err := GenerateSemantic(cfg); err == nil {
		t.Error("zero queries did not error")
	}
}

func TestSemanticModalities(t *testing.T) {
	cfg := smallSemantic()
	cfg.SecondContent = true
	cfg.SecondAlpha = 0.8
	cfg.ContentViews = 1
	raw, err := GenerateSemantic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if raw.M != 4 {
		t.Fatalf("M = %d, want 4 (content, attr, second, view)", raw.M)
	}
	// The view modality must share the content latent.
	o := raw.Objects[0]
	for i := range o.Latents[0] {
		if o.Latents[0][i] != o.Latents[3][i] {
			t.Fatal("view modality does not share content latent")
		}
	}
}

func TestEncodeShapesAndComposition(t *testing.T) {
	raw, err := GenerateSemantic(smallSemantic())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Encode(raw, tinyEncoderSet(raw, false))
	if err != nil {
		t.Fatal(err)
	}
	if plain.EncoderLabel != "ResNet50+LSTM" {
		t.Errorf("label = %q", plain.EncoderLabel)
	}
	comp, err := Encode(raw, tinyEncoderSet(raw, true))
	if err != nil {
		t.Fatal(err)
	}
	if comp.EncoderLabel != "CLIP+LSTM" {
		t.Errorf("label = %q", comp.EncoderLabel)
	}
	if len(plain.Objects) != len(raw.Objects) || len(plain.Queries) != len(raw.Queries) {
		t.Fatal("encode changed cardinalities")
	}
	for _, o := range plain.Objects[:5] {
		if len(o) != 2 || len(o[0]) != encoder.DimImage || len(o[1]) != encoder.DimText {
			t.Fatalf("object dims %v", o.Dims())
		}
	}
	// With a composition encoder the query's modality-0 vector changes,
	// the objects' do not.
	for i := range plain.Objects {
		for j := range plain.Objects[i][0] {
			if plain.Objects[i][0][j] != comp.Objects[i][0][j] {
				t.Fatal("composition encoder altered object vectors")
			}
		}
	}
	diff := false
	for j := range plain.Queries[0].Vectors[0] {
		if plain.Queries[0].Vectors[0][j] != comp.Queries[0].Vectors[0][j] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("composition encoder did not change query vectors")
	}
}

func TestEncodeValidatesEncoderCount(t *testing.T) {
	raw, err := GenerateSemantic(smallSemantic())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Encode(raw, EncoderSet{Unimodal: []encoder.Encoder{encoder.NewLSTM(raw.AttrDim, 1)}})
	if err == nil {
		t.Error("wrong encoder count did not error")
	}
}

func TestEncodedVectorsAreUnit(t *testing.T) {
	raw, err := GenerateSemantic(smallSemantic())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := Encode(raw, tinyEncoderSet(raw, true))
	if err != nil {
		t.Fatal(err)
	}
	check := func(mv vec.Multi) {
		for _, v := range mv {
			if n := float64(vec.Norm(v)); math.Abs(n-1) > 1e-3 {
				t.Fatalf("vector norm %v, want 1", n)
			}
		}
	}
	for _, o := range enc.Objects[:10] {
		check(o)
	}
	for _, q := range enc.Queries[:10] {
		check(q.Vectors)
	}
}

func TestGenerateFeatureShape(t *testing.T) {
	cfg := ImageTextN(500, 3)
	cfg.NumQueries = 20
	raw, err := GenerateFeature(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Objects) != 500 || len(raw.Queries) != 20 {
		t.Fatalf("got %d objects, %d queries", len(raw.Objects), len(raw.Queries))
	}
	for _, q := range raw.Queries {
		if len(q.GroundTruth) != 0 {
			t.Fatal("feature queries must start with empty ground truth")
		}
	}
}

func TestGenerateFeatureValidation(t *testing.T) {
	cfg := ImageTextN(0, 1)
	if _, err := GenerateFeature(cfg); err == nil {
		t.Error("zero objects did not error")
	}
}

func TestPresetsScale(t *testing.T) {
	base := CelebASim(1)
	half := CelebASim(0.5)
	if half.NumObjects != base.NumObjects/2 {
		t.Errorf("scaled objects = %d, want %d", half.NumObjects, base.NumObjects/2)
	}
	if CelebAPlusSim(1).modalities() != 4 {
		t.Errorf("CelebA+ modalities = %d, want 4", CelebAPlusSim(1).modalities())
	}
	if MSCOCOSim(1).modalities() != 3 {
		t.Errorf("MS-COCO modalities = %d, want 3", MSCOCOSim(1).modalities())
	}
	// All presets must validate at small scale.
	for _, cfg := range []SemanticConfig{CelebASim(0.1), MITStatesSim(0.1), ShoppingSim(0.1), ShoppingBottomsSim(0.1), MSCOCOSim(0.1), CelebAPlusSim(0.1)} {
		if err := cfg.validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestParallelForCoversAll(t *testing.T) {
	const n = 1000
	hits := make([]int32, n)
	parallelFor(n, func(i int) { hits[i]++ })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
	// Degenerate sizes.
	parallelFor(0, func(int) { t.Fatal("called for n=0") })
	count := 0
	parallelFor(1, func(int) { count++ })
	if count != 1 {
		t.Fatalf("n=1 ran %d times", count)
	}
}
