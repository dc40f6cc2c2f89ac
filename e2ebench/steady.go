package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// steady runs each named workload k times, one process per run, with
// seeds first..first+k-1, and prints every metric's median, quartiles
// (as Python's statistics.quantiles gives them), interquartile range as a
// share of the median, and largest relative deviation from the median.
func steady(out io.Writer, names string, first uint64, k, seconds int, traced bool, workdir string) error {
	if k < 2 {
		return fmt.Errorf("steadiness needs at least 2 runs, got %d", k)
	}
	if names == "" || names == "all" {
		names = "search-memfb,search-dnn,service-silo"
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	defs := endToEnd
	mode := "0"
	if traced {
		defs, mode = perLayer, "1"
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\tunit\truns\tmedian\tq1\tq3\tiqr/median\tmax dev\t\n")
	for _, name := range strings.Split(names, ",") {
		values := map[string][]float64{}
		for i := 0; i < k; i++ {
			seed := first + uint64(i)
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", mode, "--workdir", workdir)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			res, err := lastResult(stdout)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", name, seed, bytes.TrimSpace(stdout))
			for _, d := range defs {
				values[d.name] = append(values[d.name], res.Metrics[d.name].Value)
			}
		}
		for _, d := range defs {
			xs := values[d.name]
			q := quartiles(xs)
			med := median(append([]float64(nil), xs...))
			spread, dev := 0.0, 0.0
			if med != 0 {
				spread, dev = (q[2]-q[0])/med, maxRelDev(xs, med)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.4f\t%.4f\t\n",
				name, d.name, d.unit, len(xs), med, q[0], q[2], spread, dev)
		}
	}
	return tw.Flush()
}

// lastResult decodes the result line a run prints last.
func lastResult(stdout []byte) (result, error) {
	var res result
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("decoding result line %q: %w", last, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("run reported incorrect output")
	}
	return res, nil
}
