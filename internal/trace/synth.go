package trace

import "repro/internal/mem"

// SynthConfig sizes a synthetic trace. Zero fields take the defaults.
type SynthConfig struct {
	// Name is the recorded program name (default "synth").
	Name string
	// Accesses is the approximate total access count (default 1<<16).
	Accesses uint64
	// Threads is the worker count per parallel phase (default 8).
	Threads int
	// Phases is the number of parallel phases (default 256). More phases
	// with the same total means smaller phases — a smaller streaming
	// window relative to the file.
	Phases int
}

func (cfg SynthConfig) withDefaults() SynthConfig {
	if cfg.Name == "" {
		cfg.Name = "synth"
	}
	if cfg.Accesses == 0 {
		cfg.Accesses = 1 << 16
	}
	if cfg.Threads == 0 {
		cfg.Threads = 8
	}
	if cfg.Phases == 0 {
		cfg.Phases = 256
	}
	return cfg
}

// WriteSynthetic emits a deterministic pooled fork-join trace sized by
// cfg: an init phase, then cfg.Phases parallel phases whose threads
// false-share cache lines of one global array. Its purpose is growing
// arbitrarily large traces whose phases stay small, for the
// bounded-memory regression gates; the access pattern keeps the
// detector busy (adjacent threads share lines) without mattering in
// itself. All addresses land in the default globals segment, so replay
// never synthesizes foreign objects.
func WriteSynthetic(enc Encoder, cfg SynthConfig) error {
	cfg = cfg.withDefaults()
	// One 8-byte slot per thread, two threads per 64-byte line: the
	// classic false-sharing layout, inside the default globals segment.
	const base = mem.Addr(0x10000000)
	arrayBytes := uint64(cfg.Threads+1) * 8

	emit := func(ev Event) error { return enc.Encode(ev) }
	if err := emit(Event{Kind: KindProgram, Name: cfg.Name, Cores: 8}); err != nil {
		return err
	}

	// Serial init: the main thread touches every slot once.
	if err := emit(Event{Kind: KindPhase, Phase: 0, Name: "init"}); err != nil {
		return err
	}
	ip := uint64(0)
	for i := 0; i <= cfg.Threads; i++ {
		ip += 2
		if err := emit(Event{
			Kind: KindAccess, TID: mem.MainThread, Write: true,
			Addr: base.Add(i * 8), Size: 8, IP: ip, Lat: 4, Phase: 0,
		}); err != nil {
			return err
		}
	}
	if err := emit(Event{Kind: KindThreadEnd, TID: mem.MainThread, Phase: 0, Instrs: ip + 1}); err != nil {
		return err
	}

	per := cfg.Accesses / uint64(cfg.Phases*cfg.Threads)
	if per == 0 {
		per = 1
	}
	for p := 1; p <= cfg.Phases; p++ {
		if err := emit(Event{Kind: KindPhase, Phase: p, Name: "work", Parallel: true}); err != nil {
			return err
		}
		// The ip column restarts per phase: replay derives compute gaps
		// from consecutive ips within one phase of one thread.
		ips := make([]uint64, cfg.Threads+1)
		for t := 1; t <= cfg.Threads; t++ {
			slot := base.Add(t * 8)
			for k := uint64(0); k < per; k++ {
				ips[t] += 3
				if err := emit(Event{
					Kind: KindAccess, TID: mem.ThreadID(t), Write: k%2 == 0,
					Addr: slot, Size: 8, IP: ips[t], Lat: 4, Phase: p,
				}); err != nil {
					return err
				}
			}
		}
		for t := 1; t <= cfg.Threads; t++ {
			if err := emit(Event{Kind: KindThreadEnd, TID: mem.ThreadID(t), Phase: p, Instrs: ips[t] + 2}); err != nil {
				return err
			}
		}
	}
	return emit(Event{Kind: KindSymbol, Name: "synth_shared", Addr: base, Size: arrayBytes})
}
