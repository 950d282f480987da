package experiments

import (
	"fmt"

	"must/internal/baseline"
	"must/internal/dataset"
	"must/internal/encoder"
	"must/internal/index"
	"must/internal/vec"
)

// mitStatesBestSet is the best MIT-States encoder combination per Tab. III
// (ResNet50+LSTM for MR/MUST).
func mitStatesBestSet(raw *dataset.Raw, seed int64) dataset.EncoderSet {
	return dataset.EncoderSet{Unimodal: []encoder.Encoder{
		encoder.NewResNet50(raw.ContentDim, seed),
		encoder.NewLSTM(raw.AttrDim, seed),
	}}
}

// celebABestSet is the best CelebA encoder combination per Tab. IV
// (CLIP+Encoding).
func celebABestSet(raw *dataset.Raw, seed int64) dataset.EncoderSet {
	base := encoder.NewResNet50(raw.ContentDim, seed)
	return dataset.EncoderSet{
		Unimodal:    []encoder.Encoder{base, encoder.NewOrdinal(raw.AttrDim, seed)},
		Composition: encoder.NewCLIP(base, seed),
	}
}

// CaseResult is one framework's top-k list for the case-study query
// (Fig. 5), annotated with what each returned object matches.
type CaseResult struct {
	Framework string
	// Entries are the top-k returned objects in rank order.
	Entries []CaseEntry
}

// CaseEntry annotates one returned object.
type CaseEntry struct {
	ID int
	// IsGroundTruth marks the planted true result.
	IsGroundTruth bool
	// RefSim is the latent similarity between the object's content and
	// the query's reference content (high = "looks like the input").
	RefSim float64
	// AttrSim is the latent similarity between the object's attribute and
	// the query's requested modification (high = "matches the text").
	AttrSim float64
	// ComposedSim is the latent similarity to the true composed target.
	ComposedSim float64
}

// RunCaseStudy reproduces Fig. 5: one MIT-States query executed by MUST,
// MR and JE with their best encoders, with the top-k lists annotated
// against the ground-truth latents.
func RunCaseStudy(queryIdx, k int, opt Options) ([]CaseResult, error) {
	opt = opt.withDefaults()
	raw, err := dataset.GenerateSemantic(dataset.MITStatesSim(opt.Scale))
	if err != nil {
		return nil, err
	}
	if queryIdx < 0 || queryIdx >= len(raw.Queries) {
		return nil, fmt.Errorf("experiments: query index %d out of range", queryIdx)
	}

	// MUST and MR share ResNet50+LSTM; JE uses CLIP (its best, Tab. III).
	encPlain, err := dataset.Encode(raw, mitStatesBestSet(raw, opt.Seed))
	if err != nil {
		return nil, err
	}
	base := encoder.NewResNet50(raw.ContentDim, opt.Seed)
	encJE, err := dataset.Encode(raw, dataset.EncoderSet{
		Unimodal:    []encoder.Encoder{base, encoder.NewLSTM(raw.AttrDim, opt.Seed)},
		Composition: encoder.NewCLIP(base, opt.Seed),
	})
	if err != nil {
		return nil, err
	}

	w, _, err := learnWeightsFor(encPlain, opt)
	if err != nil {
		return nil, err
	}
	fused, err := index.BuildFusedStore(vec.FlatFromMulti(encPlain.Objects), w, opt.pipeline("MUST"))
	if err != nil {
		return nil, err
	}
	mr, err := baseline.BuildMR(encPlain.Objects, opt.pipeline("MR"))
	if err != nil {
		return nil, err
	}
	je, err := baseline.BuildJE(encJE.Objects, opt.pipeline("JE"))
	if err != nil {
		return nil, err
	}

	rq := raw.Queries[queryIdx]
	annotate := func(ids []int) []CaseEntry {
		out := make([]CaseEntry, 0, len(ids))
		for _, id := range ids {
			o := raw.Objects[id]
			e := CaseEntry{
				ID:          id,
				RefSim:      float64(vec.Dot(o.Latents[0], rq.Latents[0])),
				AttrSim:     float64(vec.Dot(o.Latents[1], rq.Latents[1])),
				ComposedSim: float64(vec.Dot(o.Latents[0], rq.Composed)),
			}
			for _, gt := range rq.GroundTruth {
				if gt == id {
					e.IsGroundTruth = true
				}
			}
			out = append(out, e)
		}
		return out
	}

	var results []CaseResult
	ms := fused.NewSearcher()
	res, _, err := ms.Search(encPlain.Queries[queryIdx].Vectors, k, opt.Beam)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(res))
	for i, r := range res {
		ids[i] = r.ID
	}
	results = append(results, CaseResult{Framework: "MUST", Entries: annotate(ids)})

	mrIDs, err := mr.NewSearcher().Search(encPlain.Queries[queryIdx].Vectors, k, opt.Beam)
	if err != nil {
		return nil, err
	}
	results = append(results, CaseResult{Framework: "MR", Entries: annotate(mrIDs)})

	jeIDs, err := je.NewSearcher().Search(encJE.Queries[queryIdx].Vectors, k, opt.Beam)
	if err != nil {
		return nil, err
	}
	results = append(results, CaseResult{Framework: "JE", Entries: annotate(jeIDs)})
	return results, nil
}
