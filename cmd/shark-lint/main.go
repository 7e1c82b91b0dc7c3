// Command shark-lint runs the repo's invariant analyzers
// (internal/lint) over Go packages, go/packages-style:
//
//	shark-lint ./...
//
// It exits 1 when any analyzer reports a diagnostic.
// docs/INVARIANTS.md documents every analyzer and the incident that
// motivated it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"shark/internal/lint"
)

func main() {
	var (
		listFlag = flag.Bool("list", false, "list analyzers and exit")
		only     = flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: shark-lint [-analyzers a,b] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
	}
	flag.Parse()

	if *listFlag {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		return
	}

	analyzers := lint.ByName(splitNonEmpty(*only))
	if len(analyzers) == 0 {
		fmt.Fprintf(os.Stderr, "shark-lint: no analyzer matches %q\n", *only)
		os.Exit(2)
	}

	diags, err := lint.Run(".", analyzers, flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shark-lint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "shark-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func splitNonEmpty(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
