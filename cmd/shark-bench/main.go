// Command shark-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	shark-bench -run all                 # every experiment, default scale
//	shark-bench -run fig7,fig8 -scale small
//	shark-bench -run abl_storage -scale large -disk 1048576
//	shark-bench -list
//	shark-bench -run all -markdown out.md
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"shark/internal/harness"
)

func main() {
	runFlag := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	scaleFlag := flag.String("scale", "default", "data scale: small | default | large")
	listFlag := flag.Bool("list", false, "list experiment ids and exit")
	markdownFlag := flag.String("markdown", "", "also write a Markdown report to this file")
	workersFlag := flag.Int("workers", 0, "override simulated worker count")
	memoryFlag := flag.Int64("memory", 0, "per-worker block-store capacity in bytes (0 = unbounded)")
	diskFlag := flag.Int64("disk", 0, "per-worker disk spill tier in bytes (0 = disabled, negative = unbounded)")
	flag.Parse()

	if *listFlag {
		for _, id := range harness.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}

	var sc harness.Scale
	switch *scaleFlag {
	case "small":
		sc = harness.SmallScale()
	case "default":
		sc = harness.DefaultScale()
	case "large":
		sc = harness.LargeScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (small|default|large)\n", *scaleFlag)
		os.Exit(2)
	}
	if *workersFlag > 0 {
		sc.Workers = *workersFlag
	}
	if *memoryFlag > 0 {
		sc.WorkerMemoryBytes = *memoryFlag
	}
	if *diskFlag != 0 {
		sc.WorkerDiskBytes = *diskFlag
	}

	// Ctrl-C cancels the in-flight experiment's distributed jobs
	// instead of leaving them to run to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	report := &harness.Report{}
	var err error
	if *runFlag == "all" {
		err = harness.RunAll(ctx, sc, report)
	} else {
		for _, id := range strings.Split(*runFlag, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			fmt.Fprintf(os.Stderr, "running %s...\n", id)
			if err = harness.Run(ctx, id, sc, report); err != nil {
				break
			}
		}
	}
	report.Fprint(os.Stdout)
	if *markdownFlag != "" {
		f, ferr := os.Create(*markdownFlag)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(1)
		}
		report.Markdown(f)
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
