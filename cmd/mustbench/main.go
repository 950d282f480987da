// Command mustbench regenerates the tables and figures of the MUST paper;
// the table below is the experiment index. Examples:
//
//	mustbench -exp t3 -scale 1        # Tab. III accuracy on MIT-States
//	mustbench -exp f6 -scale 0.5      # Fig. 6 QPS-vs-recall panels
//	mustbench -exp all                # everything (slow)
//
// The -scale flag multiplies dataset sizes relative to the internal/dataset
// presets; absolute numbers change with scale but the comparative shapes
// do not.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"must/internal/experiments"
)

// experiment is one -exp id with the function that prints it.
type experiment struct {
	ids string // the id and its aliases, comma separated
	run func(experiments.Options) error
}

// table lists every experiment in the order "all" runs them. It is the one
// source of -exp's help text, the "all" list and the dispatch.
var table = []experiment{
	{"t3", func(o experiments.Options) error {
		return accuracyTable("Tab. III: MIT-States", "mitstates", []int{1, 5, 10}, o)
	}},
	{"t4", func(o experiments.Options) error {
		return accuracyTable("Tab. IV: CelebA", "celeba", []int{1, 5, 10}, o)
	}},
	{"t5", func(o experiments.Options) error {
		return accuracyTable("Tab. V: Shopping (T-shirt)", "shopping", []int{1, 5, 10}, o)
	}},
	{"t21", func(o experiments.Options) error {
		return accuracyTable("Tab. XXI: Shopping (Bottoms)", "shopping-bottoms", []int{1, 5, 10}, o)
	}},
	{"t6", func(o experiments.Options) error {
		return accuracyTable("Tab. VI: MS-COCO", "mscoco", []int{10, 50, 100}, o)
	}},
	{"f5", caseStudy},
	{"f6", qpsRecall},
	{"t7,f7", scaleSweep},
	{"f8", kSweep},
	{"t8", modalityCount},
	{"t10", singleModality},
	{"f9", weightLearning},
	{"f13", negativeCount},
	{"t9", userWeights},
	{"f10a,f10b", graphComparison},
	{"f10c", multiVectorOpt},
	{"f11", neighborAudit},
	{"t11", graphQuality},
	{"t12", beamSweep},
	{"f14,f15", gammaSweep},
	{"t19", singleModalityAppendix},
	{"weights", learnedWeights},
	{"stats", indexStats},
}

func main() {
	ids := make([]string, len(table))
	for i, e := range table {
		ids[i] = e.ids
	}
	var (
		exp   = flag.String("exp", "", "experiment id ("+strings.Join(ids, ",")+",all)")
		scale = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = the internal/dataset preset sizes)")
		seed  = flag.Int64("seed", 7, "random seed namespace")
		beam  = flag.Int("beam", 0, "accuracy-evaluation beam width l (0 = default)")
		gamma = flag.Int("gamma", 0, "graph degree bound γ (0 = default 30)")
	)
	flag.Parse()
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	opt := experiments.Options{Scale: *scale, Seed: *seed, Beam: *beam, Gamma: *gamma}

	runs := table
	if *exp != "all" {
		i := slices.IndexFunc(table, func(e experiment) bool {
			return slices.Contains(strings.Split(e.ids, ","), *exp)
		})
		if i < 0 {
			fmt.Fprintf(os.Stderr, "mustbench: unknown experiment %q\n", *exp)
			os.Exit(1)
		}
		runs = table[i : i+1]
	}
	for _, e := range runs {
		start := time.Now()
		if err := e.run(opt); err != nil {
			fmt.Fprintf(os.Stderr, "mustbench: %s: %v\n", e.ids, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", e.ids, time.Since(start).Round(time.Millisecond))
	}
}

// indexStats is not a paper experiment: it audits the fused index built
// on ImageText (degree spread, components) using internal/graph.Stats.
func indexStats(opt experiments.Options) error {
	st, hist, err := experiments.RunIndexStats(opt)
	if err != nil {
		return err
	}
	fmt.Println("Fused index audit (ImageText)")
	fmt.Printf("  vertices=%d edges=%d avgDeg=%.1f degRange=[%d,%d] median=%d p99=%d\n",
		st.Vertices, st.Edges, st.AvgDegree, st.MinDegree, st.MaxDegree, st.MedianDegree, st.P99Degree)
	fmt.Printf("  isolated=%d reachable=%d components=%d\n", st.Isolated, st.ReachableFromSeed, st.Components)
	buckets := make([]int, 0, len(hist))
	for b := range hist {
		buckets = append(buckets, b)
	}
	sort.Ints(buckets)
	fmt.Println("  degree histogram (bucket: count):")
	for _, b := range buckets {
		fmt.Printf("    %3d+: %d\n", b, hist[b])
	}
	return nil
}

func accuracyTable(title, table string, ks []int, opt experiments.Options) error {
	rows, err := experiments.RunAccuracyTableNamed(table, ks, opt)
	if err != nil {
		return err
	}
	fmt.Println(title)
	header := "Framework  Encoder"
	for _, k := range ks {
		header += fmt.Sprintf("  Recall@%d(1)", k)
	}
	header += "  SME  ω²(learned)"
	fmt.Println(header)
	fmt.Println(strings.Repeat("-", len(header)+8))
	for _, r := range rows {
		line := fmt.Sprintf("%-9s  %-24s", r.Framework, r.Encoder)
		for _, k := range ks {
			line += fmt.Sprintf("  %11.4f", r.Recall[k])
		}
		line += fmt.Sprintf("  %6.4f", r.SME)
		if r.Weights != nil {
			line += "  ["
			for i, w := range r.Weights {
				if i > 0 {
					line += " "
				}
				line += fmt.Sprintf("%.4f", w*w)
			}
			line += "]"
		}
		fmt.Println(line)
	}
	return nil
}

func caseStudy(opt experiments.Options) error {
	results, err := experiments.RunCaseStudy(0, 5, opt)
	if err != nil {
		return err
	}
	fmt.Println("Fig. 5: case study — top-5 per framework on MIT-States query #0")
	fmt.Println("          (GT = ground truth; RefSim/AttrSim/CompSim are latent similarities)")
	for _, res := range results {
		fmt.Printf("%s:\n", res.Framework)
		for rank, e := range res.Entries {
			mark := "  "
			if e.IsGroundTruth {
				mark = "✔ "
			}
			fmt.Printf("  %d. %sobj#%-6d RefSim=%.2f AttrSim=%.2f CompSim=%.2f\n",
				rank+1, mark, e.ID, e.RefSim, e.AttrSim, e.ComposedSim)
		}
	}
	return nil
}

func qpsRecall(opt experiments.Options) error {
	for _, name := range []experiments.FeatureName{experiments.ImageText, experiments.AudioText, experiments.VideoText} {
		curves, err := experiments.RunQPSRecall(name, 10, opt)
		if err != nil {
			return err
		}
		fmt.Printf("Fig. 6: QPS vs Recall@10(10) on %s\n", name)
		printCurves(curves)
	}
	return nil
}

func printCurves(curves []experiments.Curve) {
	for _, c := range curves {
		fmt.Printf("  %s:\n", c.Name)
		for _, p := range c.Points {
			fmt.Printf("    l=%-5d recall=%.4f qps=%8.1f latency=%v\n", p.Param, p.Recall, p.QPS, p.Latency.Round(time.Microsecond))
		}
	}
}

func scaleSweep(opt experiments.Options) error {
	rows, err := experiments.RunScale(nil, 0.99, opt)
	if err != nil {
		return err
	}
	fmt.Println("Tab. VII + Fig. 7: data-volume sweep (MUST vs MUST-- response; MUST vs MR build/size)")
	fmt.Println("n        MUSTresp   BRUTEresp  reduction  MUSTbuild  MRbuild    MUSTsize   MRsize")
	for _, r := range rows {
		fmt.Printf("%-8d %-10v %-10v %8.1f%%  %-10v %-10v %-10d %d\n",
			r.N, r.MustResponse.Round(time.Millisecond), r.BruteResponse.Round(time.Millisecond),
			r.Reduction, r.MustBuild.Round(time.Millisecond), r.MRBuild.Round(time.Millisecond),
			r.MustSize, r.MRSize)
	}
	return nil
}

func kSweep(opt experiments.Options) error {
	out, err := experiments.RunKSweep([]int{1, 50, 100}, opt)
	if err != nil {
		return err
	}
	ks := make([]int, 0, len(out))
	for k := range out {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		fmt.Printf("Fig. 8: QPS vs Recall@%d(%d) on ImageText\n", k, k)
		printCurves(out[k])
	}
	return nil
}

func modalityCount(opt experiments.Options) error {
	out, err := experiments.RunModalityCount(opt)
	if err != nil {
		return err
	}
	fmt.Println("Tab. VIII: Recall@1(1) vs number of modalities on CelebA+")
	fmt.Println("m      MR       MUST")
	for m := 2; m <= 4; m++ {
		fmt.Printf("%d  %.4f   %.4f\n", m, out[m]["MR"], out[m]["MUST"])
	}
	return nil
}

func singleModality(opt experiments.Options) error {
	rows, err := experiments.RunSingleModality(opt)
	if err != nil {
		return err
	}
	fmt.Println("Tab. X: single query modality on MIT-States")
	fmt.Println("Modality   Encoder      Recall@1(1)  Recall@5(1)")
	for _, r := range rows {
		fmt.Printf("%-9s  %-12s %10.4f  %10.4f\n", r.Modality, r.Encoder, r.Recall[1], r.Recall[5])
	}
	return nil
}

func singleModalityAppendix(opt experiments.Options) error {
	rows, err := experiments.RunSingleModalityAppendix(opt)
	if err != nil {
		return err
	}
	fmt.Println("Tab. XIX/XX: single-modality accuracy across datasets")
	fmt.Println("Dataset         Modality   Encoder      Recall@1(1)  Recall@5(1)  Recall@10(1)")
	for _, r := range rows {
		fmt.Printf("%-14s  %-9s  %-12s %10.4f  %10.4f  %10.4f\n",
			r.Dataset, r.Modality, r.Encoder, r.Recall[1], r.Recall[5], r.Recall[10])
	}
	return nil
}

func weightLearning(opt experiments.Options) error {
	runs, err := experiments.RunWeightLearning(opt)
	if err != nil {
		return err
	}
	fmt.Println("Fig. 9: weight learning, hard vs random negatives (ImageText)")
	printWeightRuns(runs)
	return nil
}

func negativeCount(opt experiments.Options) error {
	runs, err := experiments.RunNegativeCount(nil, opt)
	if err != nil {
		return err
	}
	fmt.Println("Fig. 13: effect of |N-| in weight learning (ImageText)")
	printWeightRuns(runs)
	return nil
}

func printWeightRuns(runs []experiments.WeightLearningRun) {
	for _, run := range runs {
		last := run.Trace[len(run.Trace)-1]
		fmt.Printf("  %s: final loss=%.4f recall=%.4f ω=[", run.Label, last.Loss, last.Recall)
		for i, w := range run.Weights {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("%.3f", w)
		}
		fmt.Println("]")
		for _, tr := range run.Trace {
			fmt.Printf("    epoch=%-4d loss=%.4f recall=%.4f\n", tr.Epoch, tr.Loss, tr.Recall)
		}
	}
}

func userWeights(opt experiments.Options) error {
	rows, err := experiments.RunUserWeights(nil, opt)
	if err != nil {
		return err
	}
	fmt.Println("Tab. IX: user-defined weights on MIT-States")
	fmt.Println("ω0²   ω1²   IP(q0,r0)  IP(q1,r1)")
	for _, r := range rows {
		fmt.Printf("%.1f   %.1f   %8.4f  %8.4f\n", r.W0Sq, r.W1Sq, r.IP0, r.IP1)
	}
	return nil
}

func graphComparison(opt experiments.Options) error {
	rows, err := experiments.RunGraphComparison(opt)
	if err != nil {
		return err
	}
	fmt.Println("Fig. 10(a)(b): proximity-graph comparison on ImageText")
	for _, r := range rows {
		fmt.Printf("  %-7s build=%-10v size=%d bytes\n", r.Name, r.BuildTime.Round(time.Millisecond), r.SizeBytes)
		for _, p := range r.Curve {
			fmt.Printf("    l=%-5d recall=%.4f qps=%8.1f\n", p.Param, p.Recall, p.QPS)
		}
	}
	return nil
}

func multiVectorOpt(opt experiments.Options) error {
	rows, err := experiments.RunMultiVectorOptimization(opt)
	if err != nil {
		return err
	}
	fmt.Println("Fig. 10(c): multi-vector computation optimization on ImageText")
	fmt.Println("l      recall(on) recall(off)  qps(on)   qps(off)  fullEvals  partialSkips")
	for _, r := range rows {
		fmt.Printf("%-5d  %9.4f  %9.4f  %8.1f  %8.1f  %9d  %9d\n",
			r.Beam, r.RecallOn, r.RecallOff, r.QPSOn, r.QPSOff, r.FullEvals, r.PartSkips)
	}
	return nil
}

func neighborAudit(opt experiments.Options) error {
	rows, err := experiments.RunNeighborAudit(opt)
	if err != nil {
		return err
	}
	fmt.Println("Fig. 11: neighbor similarity audit on CelebA")
	fmt.Println("Index           meanIP(mod0)  meanIP(mod1)  meanJoint")
	for _, r := range rows {
		fmt.Printf("%-14s  %11.4f  %11.4f  %9.4f\n", r.Index, r.MeanIP0, r.MeanIP1, r.MeanJoint)
	}
	return nil
}

func graphQuality(opt experiments.Options) error {
	rows, err := experiments.RunGraphQuality(nil, opt)
	if err != nil {
		return err
	}
	fmt.Println("Tab. XI: NNDescent graph quality vs iterations ε")
	fmt.Println("Dataset     ε=1      ε=2      ε=3")
	for _, r := range rows {
		fmt.Printf("%-10s  %.4f   %.4f   %.4f\n", r.Dataset, r.Quality[1], r.Quality[2], r.Quality[3])
	}
	return nil
}

func beamSweep(opt experiments.Options) error {
	rows, err := experiments.RunBeamSweep(nil, opt)
	if err != nil {
		return err
	}
	fmt.Println("Tab. XII: beam size l sweep on ImageText")
	fmt.Println("l      Recall@10(10)  fullEvals  latency")
	for _, r := range rows {
		fmt.Printf("%-5d  %12.4f  %9.1f  %v\n", r.L, r.Recall, r.Evals, r.Latency.Round(time.Microsecond))
	}
	return nil
}

func gammaSweep(opt experiments.Options) error {
	rows, err := experiments.RunGammaSweep(nil, 0, opt)
	if err != nil {
		return err
	}
	fmt.Println("Fig. 14/15: γ sweep on ImageText")
	fmt.Println("γ     build       size(bytes)  recall    latency")
	for _, r := range rows {
		fmt.Printf("%-4d  %-10v  %-11d  %.4f    %v\n",
			r.Gamma, r.BuildTime.Round(time.Millisecond), r.SizeBytes, r.Recall, r.Latency.Round(time.Microsecond))
	}
	return nil
}

func learnedWeights(opt experiments.Options) error {
	rows, err := experiments.RunLearnedWeights(opt)
	if err != nil {
		return err
	}
	fmt.Println("Tab. XVIII: learned weights on feature datasets")
	fmt.Println("Dataset     Encoder             ω0²      ω1²")
	for _, r := range rows {
		fmt.Printf("%-10s  %-18s  %.4f   %.4f\n", r.Dataset, r.Encoder, r.WSq[0], r.WSq[1])
	}
	return nil
}
