package main

import (
	"flag"
	"fmt"
	"os"

	"meshplace"
	"meshplace/internal/wmn"
)

// instanceFlags declares the flags shared by every command that needs an
// instance: either load one from JSON or generate one in-process.
type instanceFlags struct {
	file    string
	width   float64
	height  float64
	routers int
	clients int
	rmin    float64
	rmax    float64
	dist    string
	seed    uint64
}

func (f *instanceFlags) register(fs *flag.FlagSet) {
	def := meshplace.DefaultGenConfig()
	fs.StringVar(&f.file, "instance", "", "path of an instance JSON to load (overrides generation flags)")
	fs.Float64Var(&f.width, "width", def.Width, "area width")
	fs.Float64Var(&f.height, "height", def.Height, "area height")
	fs.IntVar(&f.routers, "routers", def.NumRouters, "number of mesh routers")
	fs.IntVar(&f.clients, "clients", def.NumClients, "number of mesh clients")
	fs.Float64Var(&f.rmin, "rmin", def.RadiusMin, "minimum router coverage radius")
	fs.Float64Var(&f.rmax, "rmax", def.RadiusMax, "maximum router coverage radius")
	fs.StringVar(&f.dist, "dist", def.ClientDist.String(),
		`client distribution ("uniform", "normal:mx=..,my=..,sigma=..", "exponential:mean=..", "weibull:shape=..,scale=..")`)
	fs.Uint64Var(&f.seed, "seed", 1, "random seed")
}

func (f *instanceFlags) instance() (*meshplace.Instance, error) {
	if f.file != "" {
		file, err := os.Open(f.file)
		if err != nil {
			return nil, err
		}
		defer file.Close()
		return wmn.ReadInstance(file)
	}
	spec, err := meshplace.ParseClients(f.dist)
	if err != nil {
		return nil, err
	}
	cfg := meshplace.GenConfig{
		Name:       "cli",
		Width:      f.width,
		Height:     f.height,
		NumRouters: f.routers,
		NumClients: f.clients,
		RadiusMin:  f.rmin,
		RadiusMax:  f.rmax,
		ClientDist: spec,
		Seed:       f.seed,
	}
	return meshplace.Generate(cfg)
}

func runInstance(args []string) error {
	fs := flag.NewFlagSet("instance", flag.ContinueOnError)
	var inst instanceFlags
	inst.register(fs)
	out := fs.String("out", "", "output path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := inst.instance()
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return in.WriteJSON(w)
}

func runPlace(args []string) error {
	fs := flag.NewFlagSet("place", flag.ContinueOnError)
	var inst instanceFlags
	inst.register(fs)
	method := fs.String("method", "HotSpot", "ad hoc method (Random, ColLeft, Diag, Cross, Near, Corners, HotSpot, or 'all')")
	solOut := fs.String("out", "", "write the (last) placement as solution JSON to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := inst.instance()
	if err != nil {
		return err
	}
	eval, err := meshplace.NewEvaluator(in, meshplace.EvalOptions{})
	if err != nil {
		return err
	}
	fmt.Println(in)

	methods := meshplace.PlacementMethods()
	if *method != "all" {
		m, err := meshplace.PlacementMethodFromName(*method)
		if err != nil {
			return err
		}
		methods = []meshplace.PlacementMethod{m}
	}
	var last meshplace.Solution
	for _, m := range methods {
		sol, err := meshplace.Place(m, in, inst.seed)
		if err != nil {
			return err
		}
		metrics, err := eval.Evaluate(sol)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %s\n", m, metrics)
		last = sol
	}
	return writeSolution(*solOut, last)
}

func runSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ContinueOnError)
	var inst instanceFlags
	inst.register(fs)
	movement := fs.String("movement", "swap", "movement type: swap or random")
	initMethod := fs.String("init", "Random", "ad hoc method producing the initial solution")
	phases := fs.Int("phases", 61, "maximum search phases")
	neighbors := fs.Int("neighbors", 16, "neighbors examined per phase")
	trace := fs.Bool("trace", false, "print the per-phase trace")
	solOut := fs.String("out", "", "write the best solution as JSON to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := inst.instance()
	if err != nil {
		return err
	}
	eval, err := meshplace.NewEvaluator(in, meshplace.EvalOptions{})
	if err != nil {
		return err
	}
	m, err := meshplace.PlacementMethodFromName(*initMethod)
	if err != nil {
		return err
	}
	initial, err := meshplace.Place(m, in, inst.seed)
	if err != nil {
		return err
	}

	var mv meshplace.Movement
	switch *movement {
	case "swap":
		mv = meshplace.NewSwapMovement()
	case "random":
		mv = meshplace.RandomMovement{}
	default:
		return fmt.Errorf("unknown movement %q; want swap or random", *movement)
	}

	initialMetrics, err := eval.Evaluate(initial)
	if err != nil {
		return err
	}
	fmt.Printf("initial (%s): %s\n", m, initialMetrics)
	res, err := meshplace.NeighborhoodSearch(eval, initial, meshplace.SearchConfig{
		Movement:          mv,
		MaxPhases:         *phases,
		NeighborsPerPhase: *neighbors,
		RecordTrace:       *trace,
	}, inst.seed+1)
	if err != nil {
		return err
	}
	if *trace {
		for _, rec := range res.Trace {
			fmt.Printf("phase %3d: giant=%2d covered=%3d fitness=%.4f\n",
				rec.Phase, rec.Metrics.GiantSize, rec.Metrics.Covered, rec.Metrics.Fitness)
		}
	}
	fmt.Printf("best (%s movement, %d phases, %d evaluations): %s\n",
		mv.Name(), res.Phases, res.Evaluations, res.BestMetrics)
	return writeSolution(*solOut, res.Best)
}

func runGA(args []string) error {
	fs := flag.NewFlagSet("ga", flag.ContinueOnError)
	var inst instanceFlags
	inst.register(fs)
	initMethod := fs.String("init", "HotSpot", "ad hoc method initializing the population")
	generations := fs.Int("generations", 800, "number of generations")
	pop := fs.Int("pop", 64, "population size (per island when -islands > 1)")
	islands := fs.Int("islands", 1, "concurrently evolving populations (1 = classic single population)")
	migrateEvery := fs.Int("migrate-every", 10, "generations between island migration barriers")
	migrants := fs.Int("migrants", 2, "elite emigrants per migration edge")
	topology := fs.String("topology", "ring", "island migration topology: ring or complete")
	workers := fs.Int("workers", 0, "concurrent island workers (0 = one per CPU); does not change results")
	history := fs.Bool("history", false, "print the recorded evolution history")
	solOut := fs.String("out", "", "write the best solution as JSON to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := inst.instance()
	if err != nil {
		return err
	}
	eval, err := meshplace.NewEvaluator(in, meshplace.EvalOptions{})
	if err != nil {
		return err
	}
	m, err := meshplace.PlacementMethodFromName(*initMethod)
	if err != nil {
		return err
	}
	init, err := meshplace.NewPlacerInitializer(m, meshplace.PlacementOptions{})
	if err != nil {
		return err
	}
	cfg := meshplace.DefaultGAConfig()
	cfg.Generations = *generations
	cfg.PopSize = *pop

	if *islands > 1 {
		top, err := meshplace.ParseGATopology(*topology)
		if err != nil {
			return err
		}
		icfg := meshplace.IslandGAConfig{
			Config:       cfg,
			Islands:      *islands,
			MigrateEvery: *migrateEvery,
			Migrants:     *migrants,
			Topology:     top,
			FanOut:       meshplace.IslandFanOut(*workers),
		}
		res, err := meshplace.RunIslandGA(eval, init, icfg, inst.seed)
		if err != nil {
			return err
		}
		if *history {
			for i, island := range res.Islands {
				for _, rec := range island.History {
					fmt.Printf("island %d gen %4d: giant=%2d covered=%3d fitness=%.4f mean=%.4f\n",
						i, rec.Generation, rec.BestGiant, rec.BestCovered, rec.BestFitness, rec.MeanFitness)
				}
			}
		}
		fmt.Printf("island GA (%s init, %d islands on %s, %d generations, %d migrations, %d evaluations): best from island %d: %s\n",
			m, *islands, top, *generations, res.Migrations, res.Evaluations, res.BestIsland, res.BestMetrics)
		return writeSolution(*solOut, res.Best)
	}

	res, err := meshplace.RunGA(eval, init, cfg, inst.seed)
	if err != nil {
		return err
	}
	if *history {
		for _, rec := range res.History {
			fmt.Printf("gen %4d: giant=%2d covered=%3d fitness=%.4f mean=%.4f\n",
				rec.Generation, rec.BestGiant, rec.BestCovered, rec.BestFitness, rec.MeanFitness)
		}
	}
	fmt.Printf("GA (%s init, %d generations, %d evaluations): %s\n",
		m, *generations, res.Evaluations, res.BestMetrics)
	return writeSolution(*solOut, res.Best)
}

// writeSolution saves a solution as JSON when path is non-empty.
func writeSolution(path string, sol meshplace.Solution) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return sol.WriteJSON(f)
}
