package topology

// FoldConfig maps arbitrary integers onto a Config of modest size, the
// input of the package's fuzz targets and of package mapping's: kindSel
// indexes Kinds() (any other value selects an unknown kind), and each
// parameter is folded into a small range with its sign kept, so negative
// and zero values still reach the constructors' errors. The constructors'
// own size caps (maxGFOrder, MaxJellyfishSwitches, MaxHyperXSwitches)
// lie beyond these ranges.
func FoldConfig(kindSel, a, b, c, d int, seed uint64) Config {
	kinds := Kinds()
	cfg := Config{Kind: "unknown"}
	if kindSel >= 0 && kindSel < len(kinds) {
		cfg.Kind = kinds[kindSel]
	}
	fold := func(v, m int) int {
		if v < 0 {
			return -(-v % m)
		}
		return v % m
	}
	a, b, c, d = fold(a, 65), fold(b, 65), fold(c, 33), fold(d, 17)
	switch cfg.Kind {
	case "torus", "mesh":
		cfg.X, cfg.Y, cfg.Z = a, b, c
	case "fattree":
		cfg.Radix, cfg.Stages = a, b
	case "dragonfly":
		cfg.A, cfg.H, cfg.P = fold(a, 9), fold(b, 9), c
	case "slimfly":
		cfg.Q, cfg.P = fold(a, 33), fold(d, 9)
	case "jellyfish":
		cfg.S, cfg.D, cfg.P, cfg.Seed = a, b, fold(d, 9), seed
	case "hyperx":
		cfg.X, cfg.Y, cfg.Z, cfg.P = fold(a, 17), fold(b, 17), fold(c, 9), fold(d, 9)
	}
	return cfg
}
