package experiments

import (
	"fmt"

	"must/internal/baseline"
	"must/internal/dataset"
	"must/internal/encoder"
	"must/internal/index"
	"must/internal/vec"
)

// AccuracyRow is one row of an accuracy table (Tab. III–VI, XXI):
// framework × encoder combination with Recall@k(1) at several k plus SME.
type AccuracyRow struct {
	Framework string
	Encoder   string
	// Recall maps k → Recall@k(1).
	Recall map[int]float64
	// SME is the mean similarity measurement error of the top-1 result.
	SME float64
	// Weights are the learned weights (MUST rows only).
	Weights vec.Weights
}

// encoderRow describes one encoder combination for an accuracy table.
type encoderRow struct {
	set dataset.EncoderSet
	// jeOnly marks composition-encoder rows evaluated only under JE.
	jeOnly bool
	// skipJE marks rows with no composition vector (JE needs one).
	skipJE bool
}

// encodersFor builds the per-dataset encoder rows matching the paper's
// tables. seed namespaces the projections per dataset.
func encodersFor(raw *dataset.Raw, table string, seed int64) []encoderRow {
	cd, ad := raw.ContentDim, raw.AttrDim
	img := func(kind string) *encoder.Sim {
		if kind == "17" {
			return encoder.NewResNet17(cd, seed)
		}
		return encoder.NewResNet50(cd, seed)
	}
	switch table {
	case "mitstates":
		rows := []encoderRow{}
		text := map[string]func() encoder.Encoder{
			"LSTM":        func() encoder.Encoder { return encoder.NewLSTM(ad, seed) },
			"Transformer": func() encoder.Encoder { return encoder.NewTransformer(ad, seed) },
		}
		// JE rows: TIRG and CLIP compositions over a ResNet50-grade base.
		base := img("50")
		rows = append(rows,
			encoderRow{set: dataset.EncoderSet{
				Unimodal:    []encoder.Encoder{base, encoder.NewLSTM(ad, seed)},
				Composition: encoder.NewTIRG(base, seed),
			}, jeOnly: true},
			encoderRow{set: dataset.EncoderSet{
				Unimodal:    []encoder.Encoder{base, encoder.NewLSTM(ad, seed)},
				Composition: encoder.NewCLIP(base, seed),
			}, jeOnly: true},
		)
		// MR/MUST rows: {ResNet17,ResNet50,TIRG,CLIP} × {LSTM,Transformer}.
		for _, tname := range []string{"LSTM", "Transformer"} {
			for _, iname := range []string{"17", "50"} {
				rows = append(rows, encoderRow{set: dataset.EncoderSet{
					Unimodal: []encoder.Encoder{img(iname), text[tname]()},
				}, skipJE: true})
			}
			rows = append(rows, encoderRow{set: dataset.EncoderSet{
				Unimodal:    []encoder.Encoder{base, text[tname]()},
				Composition: encoder.NewTIRG(base, seed),
			}, skipJE: true})
			rows = append(rows, encoderRow{set: dataset.EncoderSet{
				Unimodal:    []encoder.Encoder{base, text[tname]()},
				Composition: encoder.NewCLIP(base, seed),
			}, skipJE: true})
		}
		return rows
	case "celeba", "shopping":
		ordinal := func() encoder.Encoder { return encoder.NewOrdinal(ad, seed) }
		base := img("50")
		rows := []encoderRow{
			{set: dataset.EncoderSet{
				Unimodal:    []encoder.Encoder{base, ordinal()},
				Composition: encoder.NewTIRG(base, seed),
			}, jeOnly: true},
		}
		if table == "celeba" {
			rows = append(rows, encoderRow{set: dataset.EncoderSet{
				Unimodal:    []encoder.Encoder{base, ordinal()},
				Composition: encoder.NewCLIP(base, seed),
			}, jeOnly: true})
		}
		rows = append(rows, encoderRow{set: dataset.EncoderSet{
			Unimodal: []encoder.Encoder{img("17"), ordinal()},
		}, skipJE: true})
		if table == "celeba" {
			rows = append(rows, encoderRow{set: dataset.EncoderSet{
				Unimodal: []encoder.Encoder{img("50"), ordinal()},
			}, skipJE: true})
		}
		rows = append(rows, encoderRow{set: dataset.EncoderSet{
			Unimodal:    []encoder.Encoder{base, ordinal()},
			Composition: encoder.NewTIRG(base, seed),
		}, skipJE: true})
		if table == "celeba" {
			rows = append(rows, encoderRow{set: dataset.EncoderSet{
				Unimodal:    []encoder.Encoder{base, ordinal()},
				Composition: encoder.NewCLIP(base, seed),
			}, skipJE: true})
		}
		return rows
	case "mscoco":
		// Layout: [content image, text, second image].
		base := img("50")
		gru := func() encoder.Encoder { return encoder.NewGRU(ad, seed) }
		second := func() encoder.Encoder { return encoder.NewResNet50(cd, seed^0x2) }
		return []encoderRow{
			{set: dataset.EncoderSet{
				Unimodal:    []encoder.Encoder{base, gru(), second()},
				Composition: encoder.NewMPC(base, seed),
			}, jeOnly: true},
			{set: dataset.EncoderSet{
				Unimodal:    []encoder.Encoder{base, gru(), second()},
				Composition: encoder.NewMPC(base, seed),
			}, skipJE: true},
			{set: dataset.EncoderSet{
				Unimodal: []encoder.Encoder{base, gru(), second()},
			}, skipJE: true},
		}
	default:
		panic(fmt.Sprintf("experiments: unknown encoder table %q", table))
	}
}

// RunAccuracyTableNamed reproduces one of Tab. III–VI / XXI by preset
// name: "mitstates", "celeba", "shopping", "shopping-bottoms" or "mscoco".
func RunAccuracyTableNamed(table string, ks []int, opt Options) ([]AccuracyRow, error) {
	opt = opt.withDefaults()
	var (
		cfg     dataset.SemanticConfig
		catalog string
	)
	switch table {
	case "mitstates":
		cfg, catalog = dataset.MITStatesSim(opt.Scale), "mitstates"
	case "celeba":
		cfg, catalog = dataset.CelebASim(opt.Scale), "celeba"
	case "shopping":
		cfg, catalog = dataset.ShoppingSim(opt.Scale), "shopping"
	case "shopping-bottoms":
		cfg, catalog = dataset.ShoppingBottomsSim(opt.Scale), "shopping"
	case "mscoco":
		cfg, catalog = dataset.MSCOCOSim(opt.Scale), "mscoco"
	default:
		return nil, fmt.Errorf("experiments: unknown accuracy table %q", table)
	}
	raw, err := dataset.GenerateSemantic(cfg)
	if err != nil {
		return nil, err
	}
	return RunAccuracyTable(raw, catalog, ks, opt)
}

// RunAccuracyTable reproduces one of Tab. III–VI / XXI: every framework ×
// encoder combination on the named dataset. table selects the encoder
// catalog ("mitstates", "celeba", "shopping", "mscoco").
func RunAccuracyTable(raw *dataset.Raw, table string, ks []int, opt Options) ([]AccuracyRow, error) {
	opt = opt.withDefaults()
	var rows []AccuracyRow
	for _, er := range encodersFor(raw, table, opt.Seed) {
		enc, err := dataset.Encode(raw, er.set)
		if err != nil {
			return nil, err
		}
		eval := evalQueries(enc)
		if er.jeOnly {
			je, err := baseline.BuildJE(enc.Objects, opt.pipeline("JE"))
			if err != nil {
				return nil, err
			}
			rec, sme, err := accuracyEval(enc, eval, jeFunc(je.NewSearcher()), ks, opt.Beam)
			if err != nil {
				return nil, err
			}
			rows = append(rows, AccuracyRow{
				Framework: "JE",
				Encoder:   er.set.Composition.Name(),
				Recall:    rec, SME: sme,
			})
			continue
		}
		// MR row.
		mr, err := baseline.BuildMR(enc.Objects, opt.pipeline("MR"))
		if err != nil {
			return nil, err
		}
		rec, sme, err := accuracyEval(enc, eval, mrFunc(mr.NewSearcher()), ks, opt.Beam)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AccuracyRow{Framework: "MR", Encoder: enc.EncoderLabel, Recall: rec, SME: sme})

		// MUST row: learn weights, build fused index, joint search.
		w, _, err := learnWeightsFor(enc, opt)
		if err != nil {
			return nil, err
		}
		fused, err := index.BuildFusedStore(vec.FlatFromMulti(enc.Objects), w, opt.pipeline("MUST"))
		if err != nil {
			return nil, err
		}
		rec, sme, err = accuracyEval(enc, eval, mustSearcherFunc(fused.NewSearcher()), ks, opt.Beam)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AccuracyRow{
			Framework: "MUST", Encoder: enc.EncoderLabel,
			Recall: rec, SME: sme, Weights: w,
		})
	}
	return rows, nil
}

// RunModalityCount reproduces Tab. VIII: Recall@1(1) of MR and MUST on
// CelebA+ with m ∈ {2, 3, 4} query/object modalities.
func RunModalityCount(opt Options) (map[int]map[string]float64, error) {
	opt = opt.withDefaults()
	raw, err := dataset.GenerateSemantic(dataset.CelebAPlusSim(opt.Scale))
	if err != nil {
		return nil, err
	}
	base := encoder.NewResNet50(raw.ContentDim, opt.Seed)
	set := dataset.EncoderSet{
		Unimodal: []encoder.Encoder{
			base,
			encoder.NewOrdinal(raw.AttrDim, opt.Seed),
			encoder.NewResNet17(raw.ContentDim, opt.Seed),
			encoder.NewResNet50(raw.ContentDim, opt.Seed^0x77),
		},
		Composition: encoder.NewCLIP(base, opt.Seed),
	}
	enc, err := dataset.Encode(raw, set)
	if err != nil {
		return nil, err
	}
	eval := evalQueries(enc)
	w, _, err := learnWeightsFor(enc, opt)
	if err != nil {
		return nil, err
	}

	out := map[int]map[string]float64{}
	for m := 2; m <= 4; m++ {
		// Restrict to the first m modalities by truncating objects and
		// queries; weights are re-normalized over the kept modalities.
		objs := make([]vec.Multi, len(enc.Objects))
		for i, o := range enc.Objects {
			objs[i] = o[:m]
		}
		wm := w[:m].Clone()
		fused, err := index.BuildFusedStore(vec.FlatFromMulti(objs), wm, opt.pipeline("MUST"))
		if err != nil {
			return nil, err
		}
		mr, err := baseline.BuildMR(objs, opt.pipeline("MR"))
		if err != nil {
			return nil, err
		}
		ms := fused.NewSearcher()
		mrs := mr.NewSearcher()
		sub := make([]dataset.EncodedQuery, len(eval))
		for i, q := range eval {
			sub[i] = dataset.EncodedQuery{Vectors: q.Vectors[:m], GroundTruth: q.GroundTruth}
		}
		recMust, _, err := accuracyEval(enc, sub, mustSearcherFunc(ms), []int{1}, opt.Beam)
		if err != nil {
			return nil, err
		}
		recMR, _, err := accuracyEval(enc, sub, mrFunc(mrs), []int{1}, opt.Beam)
		if err != nil {
			return nil, err
		}
		out[m] = map[string]float64{"MUST": recMust[1], "MR": recMR[1]}
	}
	return out, nil
}

// SingleModalityRow is one row of Tab. X / XIX / XX: accuracy when only
// one query modality is used.
type SingleModalityRow struct {
	Dataset  string
	Modality string // "Target" or "Auxiliary"
	Encoder  string
	Recall   map[int]float64
}

// RunSingleModality reproduces Tab. X on MIT-States: search accuracy with
// t = 1 (either the target or the auxiliary modality alone), by zeroing
// the other modality's weight in a fused search.
func RunSingleModality(opt Options) ([]SingleModalityRow, error) {
	opt = opt.withDefaults()
	raw, err := dataset.GenerateSemantic(dataset.MITStatesSim(opt.Scale))
	if err != nil {
		return nil, err
	}
	var rows []SingleModalityRow
	type combo struct {
		modality string
		weights  vec.Weights
		set      dataset.EncoderSet
		encName  string
	}
	combos := []combo{}
	for _, iname := range []string{"17", "50"} {
		var ie encoder.Encoder
		if iname == "17" {
			ie = encoder.NewResNet17(raw.ContentDim, opt.Seed)
		} else {
			ie = encoder.NewResNet50(raw.ContentDim, opt.Seed)
		}
		combos = append(combos, combo{
			modality: "Target", weights: vec.Weights{1, 0}, encName: ie.Name(),
			set: dataset.EncoderSet{Unimodal: []encoder.Encoder{ie, encoder.NewLSTM(raw.AttrDim, opt.Seed)}},
		})
	}
	for _, tname := range []string{"LSTM", "Transformer"} {
		var te encoder.Encoder
		if tname == "LSTM" {
			te = encoder.NewLSTM(raw.AttrDim, opt.Seed)
		} else {
			te = encoder.NewTransformer(raw.AttrDim, opt.Seed)
		}
		combos = append(combos, combo{
			modality: "Auxiliary", weights: vec.Weights{0, 1}, encName: te.Name(),
			set: dataset.EncoderSet{Unimodal: []encoder.Encoder{encoder.NewResNet50(raw.ContentDim, opt.Seed), te}},
		})
	}
	for _, cb := range combos {
		enc, err := dataset.Encode(raw, cb.set)
		if err != nil {
			return nil, err
		}
		fused, err := index.BuildFusedStore(vec.FlatFromMulti(enc.Objects), cb.weights, opt.pipeline("single"))
		if err != nil {
			return nil, err
		}
		rec, _, err := accuracyEval(enc, evalQueries(enc), mustSearcherFunc(fused.NewSearcher()), []int{1, 5}, opt.Beam)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SingleModalityRow{Dataset: raw.Name, Modality: cb.modality, Encoder: cb.encName, Recall: rec})
	}
	return rows, nil
}

// RunSingleModalityAppendix reproduces Tab. XIX/XX: target-only and
// auxiliary-only accuracy on MIT-States, CelebA and Shopping.
func RunSingleModalityAppendix(opt Options) ([]SingleModalityRow, error) {
	opt = opt.withDefaults()
	var rows []SingleModalityRow
	configs := []struct {
		cfg dataset.SemanticConfig
		aux func(raw *dataset.Raw) encoder.Encoder
	}{
		{dataset.MITStatesSim(opt.Scale), func(raw *dataset.Raw) encoder.Encoder { return encoder.NewLSTM(raw.AttrDim, opt.Seed) }},
		{dataset.CelebASim(opt.Scale), func(raw *dataset.Raw) encoder.Encoder { return encoder.NewOrdinal(raw.AttrDim, opt.Seed) }},
		{dataset.ShoppingSim(opt.Scale), func(raw *dataset.Raw) encoder.Encoder { return encoder.NewOrdinal(raw.AttrDim, opt.Seed) }},
	}
	for _, c := range configs {
		raw, err := dataset.GenerateSemantic(c.cfg)
		if err != nil {
			return nil, err
		}
		for _, side := range []struct {
			modality string
			weights  vec.Weights
			encName  func(set dataset.EncoderSet) string
		}{
			{"Target", vec.Weights{1, 0}, func(set dataset.EncoderSet) string { return set.Unimodal[0].Name() }},
			{"Auxiliary", vec.Weights{0, 1}, func(set dataset.EncoderSet) string { return set.Unimodal[1].Name() }},
		} {
			set := dataset.EncoderSet{Unimodal: []encoder.Encoder{
				encoder.NewResNet50(raw.ContentDim, opt.Seed), c.aux(raw),
			}}
			enc, err := dataset.Encode(raw, set)
			if err != nil {
				return nil, err
			}
			fused, err := index.BuildFusedStore(vec.FlatFromMulti(enc.Objects), side.weights, opt.pipeline("single"))
			if err != nil {
				return nil, err
			}
			rec, _, err := accuracyEval(enc, evalQueries(enc), mustSearcherFunc(fused.NewSearcher()), []int{1, 5, 10}, opt.Beam)
			if err != nil {
				return nil, err
			}
			rows = append(rows, SingleModalityRow{
				Dataset: raw.Name, Modality: side.modality,
				Encoder: side.encName(set), Recall: rec,
			})
		}
	}
	return rows, nil
}
