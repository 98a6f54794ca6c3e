// Command covergate reads `go test -cover ./...` output on stdin,
// echoes it, and fails unless every required package appears with
// statement coverage at or above the floor. It is the enforcement half
// of `make cover`: the exactness-critical query-evaluation packages
// (internal/search, internal/index) must not silently decay.
//
// Usage:
//
//	go test -cover ./... | go run ./tools/covergate \
//		-floor 85 -require cottage/internal/search,cottage/internal/index
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// parseLine extracts (package, coverage%) from one `go test -cover`
// result line, e.g.
//
//	ok  	cottage/internal/index	0.41s	coverage: 85.2% of statements
//
// The second return is false for lines without a coverage figure
// (no-test packages, failures, build output).
func parseLine(line string) (pkg string, pct float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "ok" {
		return "", 0, false
	}
	for i, f := range fields {
		if f != "coverage:" || i+1 >= len(fields) {
			continue
		}
		raw := strings.TrimSuffix(fields[i+1], "%")
		pct, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return "", 0, false
		}
		return fields[1], pct, true
	}
	return "", 0, false
}

func main() {
	floor := flag.Float64("floor", 85, "minimum statement coverage percent for required packages")
	require := flag.String("require", "", "comma-separated import paths that must meet the floor")
	flag.Parse()

	required := make(map[string]bool)
	for _, p := range strings.Split(*require, ",") {
		if p = strings.TrimSpace(p); p != "" {
			required[p] = true
		}
	}

	got := make(map[string]float64)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if pkg, pct, ok := parseLine(line); ok {
			got[pkg] = pct
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "covergate: reading input: %v\n", err)
		os.Exit(1)
	}

	failed := false
	for pkg := range required {
		pct, ok := got[pkg]
		switch {
		case !ok:
			fmt.Fprintf(os.Stderr, "covergate: required package %s missing from coverage output\n", pkg)
			failed = true
		case pct < *floor:
			fmt.Fprintf(os.Stderr, "covergate: %s coverage %.1f%% below floor %.1f%%\n", pkg, pct, *floor)
			failed = true
		default:
			fmt.Printf("covergate: %s %.1f%% >= %.1f%% ok\n", pkg, pct, *floor)
		}
	}
	if failed {
		os.Exit(1)
	}
}
