package core

import "flag"

// CLIFlags holds the values of the shared command-line flags that are
// not workspace options: where to write a telemetry trace and a
// profile.
type CLIFlags struct {
	Trace   string // JSONL telemetry trace file ("" = off)
	Profile string // directory for cpu.pprof and heap.pprof ("" = off)
}

// BindFlags registers the verification flags that the hsis and table1
// commands share on fs: -image, -reorder, -reorder-accel,
// -reorder-max-growth, -reorder-trigger, -trace and -profile. Parsing
// fs fills the matching fields of opts and of the returned CLIFlags;
// flags left unset keep the defaults shown in the usage text.
func BindFlags(fs *flag.FlagSet, opts *Options) *CLIFlags {
	fs.StringVar(&opts.Image, "image", "auto",
		"image-computation engine: auto, monolithic, partitioned, clustered or iso")
	fs.StringVar(&opts.Reorder, "reorder", "off",
		"dynamic variable reordering policy: off, manual or auto")
	fs.StringVar(&opts.ReorderAccel, "reorder-accel", "all",
		"sifting accelerations: all, none, or a comma list of interaction, lowerbound")
	fs.Float64Var(&opts.ReorderMaxGrowth, "reorder-max-growth", 0,
		"abort a sift direction when nodes exceed this factor of the best size (0 = default 1.2)")
	fs.Float64Var(&opts.ReorderTrigger, "reorder-trigger", 0,
		"auto-sift when live nodes exceed this factor of the size at the last arming (0 = default 2)")
	cf := &CLIFlags{}
	fs.StringVar(&cf.Trace, "trace", "",
		"write a JSONL telemetry trace of the run to this file")
	fs.StringVar(&cf.Profile, "profile", "",
		"write cpu.pprof and heap.pprof into this directory")
	return cf
}
