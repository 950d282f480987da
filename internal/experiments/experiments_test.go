package experiments

import (
	"testing"

	"must/internal/dataset"
	"must/internal/vec"
)

// testOpt returns options small enough for CI while keeping the paper's
// comparative shapes measurable.
func testOpt() Options {
	return Options{Scale: 0.06, Gamma: 16, Beam: 150, TrainEpochs: 60, Seed: 7}
}

// find returns the first row matching framework and encoder.
func find(rows []AccuracyRow, framework, enc string) *AccuracyRow {
	for i := range rows {
		if rows[i].Framework == framework && rows[i].Encoder == enc {
			return &rows[i]
		}
	}
	return nil
}

// TestAccuracyShapeCelebA asserts the Tab. IV shape: MUST beats MR on the
// shared encoder and beats JE overall, with lower SME.
func TestAccuracyShapeCelebA(t *testing.T) {
	rows, err := RunAccuracyTableNamed("celeba", []int{1, 5}, testOpt())
	if err != nil {
		t.Fatal(err)
	}
	mr := find(rows, "MR", "CLIP+Encoding")
	mu := find(rows, "MUST", "CLIP+Encoding")
	je := find(rows, "JE", "CLIP")
	if mr == nil || mu == nil || je == nil {
		t.Fatalf("missing rows: %+v", rows)
	}
	if mu.Recall[1] <= mr.Recall[1] {
		t.Errorf("MUST@1 (%v) must beat MR@1 (%v)", mu.Recall[1], mr.Recall[1])
	}
	if mu.Recall[1] <= je.Recall[1] {
		t.Errorf("MUST@1 (%v) must beat JE@1 (%v)", mu.Recall[1], je.Recall[1])
	}
	if mu.SME >= je.SME {
		t.Errorf("MUST SME (%v) must undercut JE SME (%v)", mu.SME, je.SME)
	}
	if mu.Weights == nil {
		t.Error("MUST row missing learned weights")
	}
	for _, r := range rows {
		for k, v := range r.Recall {
			if v < 0 || v > 1 {
				t.Errorf("%s/%s recall@%d = %v out of range", r.Framework, r.Encoder, k, v)
			}
		}
	}
}

// TestAccuracyShapeMSCOCO asserts the Tab. VI shape on 3 modalities: both
// multi-vector frameworks crush JE.
func TestAccuracyShapeMSCOCO(t *testing.T) {
	opt := testOpt()
	opt.Scale = 0.2 // MS-COCO's hard regime needs enough density per cluster
	rows, err := RunAccuracyTableNamed("mscoco", []int{10, 50}, opt)
	if err != nil {
		t.Fatal(err)
	}
	je := find(rows, "JE", "MPC")
	mu := find(rows, "MUST", "ResNet50+GRU+ResNet50")
	mr := find(rows, "MR", "ResNet50+GRU+ResNet50")
	if je == nil || mu == nil || mr == nil {
		t.Fatalf("missing rows")
	}
	if mu.Recall[10] <= je.Recall[10] {
		t.Errorf("MUST@10 (%v) must beat JE@10 (%v)", mu.Recall[10], je.Recall[10])
	}
	if mr.Recall[10] <= je.Recall[10] {
		t.Errorf("MR@10 (%v) must beat JE@10 (%v)", mr.Recall[10], je.Recall[10])
	}
	if mu.Recall[10] <= mr.Recall[10] {
		t.Errorf("MUST@10 (%v) must beat MR@10 (%v)", mu.Recall[10], mr.Recall[10])
	}
}

func TestRunAccuracyTableUnknown(t *testing.T) {
	if _, err := RunAccuracyTableNamed("nope", []int{1}, testOpt()); err == nil {
		t.Error("unknown table did not error")
	}
}

// TestQPSRecallShape asserts the Fig. 6 shape: MUST reaches near-exact
// recall, MR plateaus below it, brute force is exact but does more work
// than the graph at high recall.
func TestQPSRecallShape(t *testing.T) {
	curves, err := RunQPSRecall(ImageText, 10, testOpt())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]float64{}
	for _, c := range curves {
		for _, p := range c.Points {
			byName[c.Name] = append(byName[c.Name], p.Recall)
		}
	}
	maxOf := func(xs []float64) float64 {
		m := 0.0
		for _, x := range xs {
			if x > m {
				m = x
			}
		}
		return m
	}
	if maxOf(byName["MUST"]) < 0.95 {
		t.Errorf("MUST max recall = %v, want near exact", maxOf(byName["MUST"]))
	}
	if maxOf(byName["MR"]) >= maxOf(byName["MUST"]) {
		t.Errorf("MR max recall (%v) must plateau below MUST (%v)", maxOf(byName["MR"]), maxOf(byName["MUST"]))
	}
	if got := maxOf(byName["MUST--"]); got < 0.999 {
		t.Errorf("MUST-- recall = %v, must be exact", got)
	}
	// MUST's cheapest point at recall ≥ 0.95 must do less work than brute
	// force, which evaluates all n objects per query. Counted, not timed,
	// so machine load cannot move it.
	n := float64(int(featureBaseN * testOpt().Scale))
	mustEvals := n
	for _, c := range curves {
		if c.Name != "MUST" {
			continue
		}
		for _, p := range c.Points {
			if p.Recall >= 0.95 && p.Evals < mustEvals {
				mustEvals = p.Evals
			}
		}
	}
	if mustEvals >= n {
		t.Errorf("MUST at recall≥0.95 spends %v full evals per query, must beat brute force's %v", mustEvals, n)
	}
}

// TestScaleShape asserts the Tab. VII shape: brute-force response grows
// roughly linearly while MUST's reduction in work stays high at the top
// scale.
func TestScaleShape(t *testing.T) {
	rows, err := RunScale([]int{1, 4}, 0.95, testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	small, big := rows[0], rows[1]
	if big.N != 4*small.N {
		t.Fatalf("scale factors wrong: %d vs %d", small.N, big.N)
	}
	if big.BruteResponse <= small.BruteResponse {
		t.Error("brute-force response did not grow with n")
	}
	// The reduction is counted in full evaluations, not timed, so
	// machine load cannot move it: brute force evaluates all N objects.
	if reduction := 100 * (1 - big.MustEvals/float64(big.N)); reduction < 30 {
		t.Errorf("MUST evals reduction at top scale = %.1f%% (%.1f evals of %d), want ≥ 30%%", reduction, big.MustEvals, big.N)
	}
	if big.MustSize <= small.MustSize {
		t.Error("index size did not grow with n")
	}
	// MR maintains one graph per modality: bigger than MUST's single one.
	if big.MRSize <= big.MustSize {
		t.Errorf("MR total size (%d) must exceed MUST size (%d)", big.MRSize, big.MustSize)
	}
}

// TestModalityCountShape asserts the Tab. VIII shape: MUST's recall does
// not degrade as modalities are added, and MUST beats MR at every m.
func TestModalityCountShape(t *testing.T) {
	out, err := RunModalityCount(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	for m := 2; m <= 4; m++ {
		if out[m]["MUST"] < out[m]["MR"] {
			t.Errorf("m=%d: MUST (%v) below MR (%v)", m, out[m]["MUST"], out[m]["MR"])
		}
	}
	if out[4]["MUST"] < out[2]["MUST"]-0.05 {
		t.Errorf("MUST recall regressed with more modalities: m=2 %v, m=4 %v", out[2]["MUST"], out[4]["MUST"])
	}
}

// TestUserWeightsShape asserts the Tab. IX shape: raising ω0² raises the
// target-modality similarity of results and lowers the auxiliary one.
func TestUserWeightsShape(t *testing.T) {
	rows, err := RunUserWeights([]float64{0.2, 0.8}, testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	lo, hi := rows[0], rows[1]
	if hi.IP0 <= lo.IP0 {
		t.Errorf("IP0 must rise with ω0²: %v -> %v", lo.IP0, hi.IP0)
	}
	if hi.IP1 >= lo.IP1 {
		t.Errorf("IP1 must fall with ω0²: %v -> %v", lo.IP1, hi.IP1)
	}
}

// TestGraphQualityShape asserts the Tab. XI shape: quality grows with ε.
func TestGraphQualityShape(t *testing.T) {
	rows, err := RunGraphQuality([]int{1, 3}, testOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Quality[3] < r.Quality[1] {
			t.Errorf("%s: quality fell with iterations: %v -> %v", r.Dataset, r.Quality[1], r.Quality[3])
		}
		if r.Quality[3] < 0.7 {
			t.Errorf("%s: quality at ε=3 = %v, too low", r.Dataset, r.Quality[3])
		}
	}
}

// TestBeamSweepShape asserts the Tab. XII shape: recall is non-decreasing
// and work (full evaluations per query, which stand in for response time
// without depending on machine load) increasing in l.
func TestBeamSweepShape(t *testing.T) {
	rows, err := RunBeamSweep([]int{20, 400}, testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Recall < rows[0].Recall {
		t.Errorf("recall fell with l: %v -> %v", rows[0].Recall, rows[1].Recall)
	}
	if rows[1].Evals <= rows[0].Evals {
		t.Errorf("full evals per query did not grow with l: %v -> %v", rows[0].Evals, rows[1].Evals)
	}
}

// TestMultiVectorOptimizationShape asserts the Fig. 10(c) shape: identical
// recall with and without the optimization, and real skips happening.
func TestMultiVectorOptimizationShape(t *testing.T) {
	rows, err := RunMultiVectorOptimization(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	anySkips := false
	for _, r := range rows {
		if r.RecallOn != r.RecallOff {
			t.Errorf("l=%d: optimization changed recall: %v vs %v", r.Beam, r.RecallOn, r.RecallOff)
		}
		if r.PartSkips > 0 {
			anySkips = true
		}
	}
	if !anySkips {
		t.Error("optimization never skipped any candidate")
	}
}

// TestNeighborAuditShape asserts the Fig. 11 shape: the fused index's
// neighbors balance both modalities, MR's collapse to one.
func TestNeighborAuditShape(t *testing.T) {
	rows, err := RunNeighborAudit(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	var fused, mod0, mod1 *NeighborAuditRow
	for i := range rows {
		switch rows[i].Index {
		case "MUST(fused)":
			fused = &rows[i]
		case "MR(modality0)":
			mod0 = &rows[i]
		case "MR(modality1)":
			mod1 = &rows[i]
		}
	}
	if fused == nil || mod0 == nil || mod1 == nil {
		t.Fatalf("missing audit rows: %+v", rows)
	}
	// The per-modality indexes maximize their own modality.
	if mod0.MeanIP0 <= fused.MeanIP0 {
		t.Errorf("modality-0 index should beat fused on IP0: %v vs %v", mod0.MeanIP0, fused.MeanIP0)
	}
	if mod1.MeanIP1 <= fused.MeanIP1 {
		t.Errorf("modality-1 index should beat fused on IP1: %v vs %v", mod1.MeanIP1, fused.MeanIP1)
	}
	// But the fused index wins on joint similarity.
	if fused.MeanJoint <= mod0.MeanJoint || fused.MeanJoint <= mod1.MeanJoint {
		t.Errorf("fused joint similarity (%v) must beat per-modality indexes (%v, %v)",
			fused.MeanJoint, mod0.MeanJoint, mod1.MeanJoint)
	}
}

// TestWeightLearningShape asserts the Fig. 9 shape: hard negatives reach
// recall at least on par with random negatives.
func TestWeightLearningShape(t *testing.T) {
	runs, err := RunWeightLearning(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	var hard, random float64
	for _, r := range runs {
		final := r.Trace[len(r.Trace)-1].Recall
		switch r.Label {
		case "Hard":
			hard = final
		case "Random":
			random = final
		}
	}
	if hard < random-0.05 {
		t.Errorf("hard negatives (%v) must not trail random (%v)", hard, random)
	}
}

func TestCaseStudy(t *testing.T) {
	results, err := RunCaseStudy(0, 5, testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d frameworks", len(results))
	}
	var mustHasGT bool
	for _, res := range results {
		if len(res.Entries) == 0 || len(res.Entries) > 5 {
			t.Fatalf("%s returned %d entries", res.Framework, len(res.Entries))
		}
		for _, e := range res.Entries {
			if e.RefSim < -1.01 || e.RefSim > 1.01 || e.AttrSim < -1.01 || e.AttrSim > 1.01 {
				t.Errorf("%s: similarity out of range: %+v", res.Framework, e)
			}
		}
		if res.Framework == "MUST" {
			for _, e := range res.Entries {
				if e.IsGroundTruth {
					mustHasGT = true
				}
			}
		}
	}
	if !mustHasGT {
		t.Log("note: MUST top-5 missed the ground truth at this tiny scale (non-fatal)")
	}
	if _, err := RunCaseStudy(-1, 5, testOpt()); err == nil {
		t.Error("out-of-range query index did not error")
	}
}

func TestSingleModalityRows(t *testing.T) {
	rows, err := RunSingleModality(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Recall[1] < 0 || r.Recall[1] > 1 {
			t.Errorf("%s/%s recall out of range", r.Modality, r.Encoder)
		}
		// Single-modality search must be clearly worse than full MSTM
		// (paper Tab. X): recall@1 stays low.
		if r.Recall[1] > 0.6 {
			t.Errorf("%s/%s single-modality recall@1 = %v, suspiciously high", r.Modality, r.Encoder, r.Recall[1])
		}
	}
}

func TestFillGroundTruth(t *testing.T) {
	opt := testOpt()
	enc, err := EncodeFeature(ImageText, 500, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := vec.FlatFromMulti(enc.Objects)
	w, _, err := LearnFeatureWeights(enc, st, opt)
	if err != nil {
		t.Fatal(err)
	}
	FillGroundTruth(enc, st, w, 5)
	for i, q := range enc.Queries {
		if len(q.GroundTruth) != 5 {
			t.Fatalf("query %d has %d ground truths", i, len(q.GroundTruth))
		}
	}
}

func TestEncodeFeatureUnknown(t *testing.T) {
	if _, err := EncodeFeature(FeatureName("nope"), 100, testOpt()); err == nil {
		t.Error("unknown feature dataset did not error")
	}
}

func TestSplitTrainEval(t *testing.T) {
	cases := []struct {
		total, wantTrain int
	}{
		{10, 2}, {2000, 300}, {5, 1}, {1, 1}, // total=1 degenerates to train=0? see below
	}
	for _, c := range cases {
		train, eval := splitTrainEval(c.total)
		if train < 0 || train >= c.total && c.total > 1 {
			t.Errorf("total=%d: train=%d invalid", c.total, train)
		}
		if train+eval != c.total {
			t.Errorf("total=%d: %d+%d != total", c.total, train, eval)
		}
	}
}

func TestLearnedWeightsRows(t *testing.T) {
	opt := testOpt()
	rows, err := RunLearnedWeights(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if len(r.WSq) != 2 {
			t.Errorf("%s: %d weights", r.Dataset, len(r.WSq))
		}
		for _, w := range r.WSq {
			if w < 0 {
				t.Errorf("%s: negative squared weight", r.Dataset)
			}
		}
	}
}

func TestGammaSweepShape(t *testing.T) {
	rows, err := RunGammaSweep([]int{8, 24}, 200, testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].SizeBytes <= rows[0].SizeBytes {
		t.Errorf("index size did not grow with γ: %d -> %d", rows[0].SizeBytes, rows[1].SizeBytes)
	}
	if rows[1].Recall < rows[0].Recall-0.02 {
		t.Errorf("recall fell with γ: %v -> %v", rows[0].Recall, rows[1].Recall)
	}
}

// TestGraphComparisonSmall runs the Fig. 10(a)(b) comparison on a tiny
// corpus and asserts every graph builds and searches.
func TestGraphComparisonSmall(t *testing.T) {
	opt := testOpt()
	opt.Scale = 0.03
	rows, err := RunGraphComparison(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d graphs", len(rows))
	}
	for _, r := range rows {
		if r.BuildTime <= 0 || r.SizeBytes <= 0 {
			t.Errorf("%s: missing build accounting", r.Name)
		}
		best := 0.0
		for _, p := range r.Curve {
			if p.Recall > best {
				best = p.Recall
			}
		}
		if best < 0.5 {
			t.Errorf("%s: best recall %v too low", r.Name, best)
		}
	}
}

// The semantic presets all flow through RunAccuracyTableNamed; make sure
// the raw generators stay compatible with the encoder catalogs.
func TestEncoderCatalogsMatchPresets(t *testing.T) {
	for _, tbl := range []string{"mitstates", "celeba", "shopping", "mscoco"} {
		var cfg dataset.SemanticConfig
		switch tbl {
		case "mitstates":
			cfg = dataset.MITStatesSim(0.05)
		case "celeba":
			cfg = dataset.CelebASim(0.05)
		case "shopping":
			cfg = dataset.ShoppingSim(0.05)
		case "mscoco":
			cfg = dataset.MSCOCOSim(0.05)
		}
		raw, err := dataset.GenerateSemantic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, er := range encodersFor(raw, tbl, 1) {
			if len(er.set.Unimodal) != raw.M {
				t.Errorf("%s: encoder row %s has %d encoders for %d modalities",
					tbl, er.set.Label(), len(er.set.Unimodal), raw.M)
			}
		}
	}
}

func TestSingleModalityAppendixRows(t *testing.T) {
	rows, err := RunSingleModalityAppendix(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6 (3 datasets × 2 modalities)", len(rows))
	}
	for _, r := range rows {
		if r.Dataset == "" || r.Encoder == "" {
			t.Errorf("row missing labels: %+v", r)
		}
		if r.Recall[10] < r.Recall[1] {
			t.Errorf("%s/%s: recall@10 (%v) below recall@1 (%v)", r.Dataset, r.Modality, r.Recall[10], r.Recall[1])
		}
	}
}
