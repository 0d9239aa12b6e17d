package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/placement"
)

// runPlace implements `smtctl place`: read a JSON workload-mix file (an
// api.PlaceRequest), solve the placement — locally through the engine, or
// remotely via POST /v1/place when -url is set — and print the assignment
// table. Exit codes follow the rest of the command: 2 for usage errors, 1
// for runtime failures.
func runPlace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smtctl place", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		file     = fs.String("file", "", "JSON workload-mix file (api.PlaceRequest); required")
		url      = fs.String("url", "", "smtservd/smtrouter base URL; empty solves locally")
		archName = fs.String("arch", "", "architecture override: power7, nehalem or smt8")
		chips    = fs.Int("chips", 0, "chip-count override (>= 1)")
		timeout  = fs.Duration("timeout", 30*time.Second, "placement budget")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *file == "" {
		fmt.Fprintln(stderr, "smtctl place: -file is required")
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "smtctl place: unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		return 2
	}

	raw, err := os.ReadFile(*file)
	if err != nil {
		fmt.Fprintf(stderr, "smtctl place: %v\n", err)
		return 1
	}
	var req api.PlaceRequest
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		fmt.Fprintf(stderr, "smtctl place: parsing %s: %v\n", *file, err)
		return 1
	}
	if *archName != "" {
		req.Arch = *archName
	}
	if *chips != 0 {
		req.Chips = *chips
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	resp, err := solvePlace(ctx, *url, req)
	if err != nil {
		fmt.Fprintf(stderr, "smtctl place: %v\n", err)
		return 1
	}
	printPlacement(stdout, resp)
	return 0
}

// solvePlace answers the request remotely when url is set, else through a
// private local engine (its own machine pool — the offline analogue of
// the server path, producing byte-identical placements for the same
// request).
func solvePlace(ctx context.Context, url string, req api.PlaceRequest) (api.PlaceResponse, error) {
	if url != "" {
		c, err := client.New(client.Config{BaseURL: url})
		if err != nil {
			return api.PlaceResponse{}, err
		}
		return c.Place(ctx, req)
	}
	name := req.Arch
	if name == "" {
		name = "power7"
	}
	d, err := arch.ByName(name)
	if err != nil {
		return api.PlaceResponse{}, err
	}
	defaultChips := 1
	in, err := placement.Resolve(d, defaultChips, req)
	if err != nil {
		return api.PlaceResponse{}, err
	}
	eng := &placement.Engine{Pool: cpu.NewPool(1)}
	return eng.Place(ctx, in)
}

// printPlacement renders the assignment and pair-score tables.
func printPlacement(w io.Writer, resp api.PlaceResponse) {
	fmt.Fprintf(w, "placement on %s × %d chips (SMT%d, <= %d threads/core), total score %.4f\n",
		resp.Arch, resp.Chips, resp.SMTLevel, resp.MaxPerCore, resp.TotalScore)
	if resp.Degraded {
		fmt.Fprintf(w, "DEGRADED: %s\n", resp.Warning)
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "CHIP\tCORE\tTHREADS")
	assignments := append([]api.Assignment(nil), resp.Assignments...)
	sort.Slice(assignments, func(i, j int) bool {
		if assignments[i].Chip != assignments[j].Chip {
			return assignments[i].Chip < assignments[j].Chip
		}
		return assignments[i].Core < assignments[j].Core
	})
	for _, a := range assignments {
		fmt.Fprintf(tw, "%d\t%d\t%s\n", a.Chip, a.Core, strings.Join(a.Threads, ", "))
	}
	//lint:ignore errlint stdout rendering is best-effort; a closed pipe must not turn into a failure exit
	_ = tw.Flush()

	if len(resp.PairScores) > 0 {
		fmt.Fprintln(w, "\npair compatibility (SMTsm of the co-run; lower co-locates better):")
		tw = tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
		fmt.Fprintln(tw, "A\tB\tSCORE\tWALL CYCLES")
		for _, p := range resp.PairScores {
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%d\n", p.A, p.B, p.Score, p.WallCycles)
		}
		//lint:ignore errlint stdout rendering is best-effort; a closed pipe must not turn into a failure exit
		_ = tw.Flush()
	}
	fmt.Fprintf(w, "\nfingerprint %s\n", resp.Fingerprint)
}
