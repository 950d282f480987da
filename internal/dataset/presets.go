package dataset

// Presets for the nine datasets of Tab. II, scaled to laptop/CI budgets.
// The Scale argument multiplies object and query counts; Scale = 1 gives
// the default reproduction size used by `go test`, the benchmark harness
// passes larger scales.

// CelebASim mirrors CelebA (2 modalities: face image* + attribute text).
// Paper: 191,549 objects / 34,326 queries; default here: 15k / 1.5k.
func CelebASim(scale float64) SemanticConfig {
	return SemanticConfig{
		Name:               "CelebASim",
		Seed:               0xce1eba,
		NumObjects:         scaled(15000, scale),
		NumQueries:         scaled(1500, scale),
		ContentDim:         24,
		AttrDim:            16,
		NumAttrs:           40, // CelebA has 40 annotated attributes
		AttrJitter:         0.25,
		ComposeAlpha:       0.9,
		RefDistractors:     2,
		RefDistractorNoise: 0.35,
		ContentClusters:    scaled(150, scale), // identity look-alike groups
		ContentJitter:      0.75,
	}
}

// MITStatesSim mirrors MIT-States (image* + state-adjective text).
// Paper: 53,743 objects / 72,732 queries; default here: 12k / 2k.
func MITStatesSim(scale float64) SemanticConfig {
	return SemanticConfig{
		Name:               "MITStatesSim",
		Seed:               0x317a7e5,
		NumObjects:         scaled(12000, scale),
		NumQueries:         scaled(2000, scale),
		ContentDim:         24,
		AttrDim:            16,
		NumAttrs:           115, // MIT-States has 115 adjectives
		AttrJitter:         0.20,
		ComposeAlpha:       1.0, // state changes move content strongly
		RefDistractors:     2,
		RefDistractorNoise: 0.30,
		ContentClusters:    scaled(120, scale), // noun categories
		ContentJitter:      0.70,
	}
}

// ShoppingSim mirrors Shopping100k T-shirts (product image* + structured
// attribute text). Paper: 96,009 objects / 47,658 queries; default here:
// 10k / 1.5k. Attribute modifications dominate (replace color/fabric), so
// the composition is strong and reference distractors are plentiful —
// which is what collapses MR's image stream in Tab. V.
func ShoppingSim(scale float64) SemanticConfig {
	return SemanticConfig{
		Name:               "ShoppingSim",
		Seed:               0x5a0bb1,
		NumObjects:         scaled(10000, scale),
		NumQueries:         scaled(1500, scale),
		ContentDim:         20,
		AttrDim:            16,
		NumAttrs:           60,
		AttrJitter:         0.15,
		ComposeAlpha:       1.6, // attribute replacement changes the product a lot
		RefDistractors:     4,   // catalogues are full of near-duplicates
		RefDistractorNoise: 0.20,
		ContentClusters:    scaled(100, scale), // product families
		ContentJitter:      0.50,
	}
}

// ShoppingBottomsSim is the second Shopping category (Tab. XXI).
func ShoppingBottomsSim(scale float64) SemanticConfig {
	cfg := ShoppingSim(scale)
	cfg.Name = "ShoppingBottomsSim"
	cfg.Seed = 0x5a0bb2
	return cfg
}

// MSCOCOSim mirrors MS-COCO (image* ×2 + text, 3 modalities).
// Paper: 19,711 objects / 1,237 queries; default here: 8k / 1k. This is
// the paper's hardest dataset (Recall@10 ≈ 0.09 for the best method), so
// the composition is strong and jitter high.
func MSCOCOSim(scale float64) SemanticConfig {
	return SemanticConfig{
		Name:               "MSCOCOSim",
		Seed:               0xc0c0,
		NumObjects:         scaled(8000, scale),
		NumQueries:         scaled(1000, scale),
		ContentDim:         24,
		AttrDim:            16,
		NumAttrs:           30, // coarse caption themes
		AttrJitter:         1.20,
		ComposeAlpha:       1.2,
		RefDistractors:     2,
		RefDistractorNoise: 0.25,
		SecondContent:      true,
		SecondAlpha:        0.8,
		ContentClusters:    scaled(30, scale), // scene categories
		ContentJitter:      0.90,
		TargetNoise:        1.90, // true targets match only semantically
	}
}

// CelebAPlusSim mirrors CelebA+ (image* ×3 + text, 4 modalities): the
// CelebA objects with two extra simulated image modalities (§VIII-A).
func CelebAPlusSim(scale float64) SemanticConfig {
	cfg := CelebASim(scale)
	cfg.Name = "CelebAPlusSim"
	cfg.ContentViews = 2
	return cfg
}

// ImageTextN mirrors ImageText1M (SIFT-derived image features + text) at n
// objects. Paper: 1M objects / 10k queries.
func ImageTextN(n int, seed int64) FeatureConfig {
	return FeatureConfig{
		Name:            "ImageText",
		Seed:            seed,
		NumObjects:      n,
		NumQueries:      200,
		ContentDim:      24,
		AttrDim:         16,
		NumAttrs:        50,
		AttrJitter:      0.35,
		ContentClusters: 200,
		ContentJitter:   0.8,
	}
}

// AudioTextN mirrors AudioText1M (MSONG audio features + text).
func AudioTextN(n int, seed int64) FeatureConfig {
	return FeatureConfig{
		Name:            "AudioText",
		Seed:            seed ^ 0xa0d10,
		NumObjects:      n,
		NumQueries:      200,
		ContentDim:      32, // audio features are higher-dimensional
		AttrDim:         16,
		NumAttrs:        50,
		AttrJitter:      0.35,
		ContentClusters: 150,
		ContentJitter:   0.7,
	}
}

// VideoTextN mirrors VideoText1M (UQ-V keyframe features + text).
func VideoTextN(n int, seed int64) FeatureConfig {
	return FeatureConfig{
		Name:            "VideoText",
		Seed:            seed ^ 0x71de0,
		NumObjects:      n,
		NumQueries:      200,
		ContentDim:      28,
		AttrDim:         16,
		NumAttrs:        50,
		AttrJitter:      0.35,
		ContentClusters: 180,
		ContentJitter:   0.75,
	}
}

func scaled(base int, scale float64) int {
	if scale <= 0 {
		scale = 1
	}
	n := int(float64(base) * scale)
	if n < 1 {
		n = 1
	}
	return n
}
