package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// record is one run as -o appends it: the run's result plus what it was
// run with.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Result   *result `json:"result"`
}

func appendRecord(o options, res *result) error {
	js, err := json.Marshal(record{o.workload, o.seed, o.trace, o.seconds, res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(o.out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(js, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Result == nil {
			return nil, fmt.Errorf("%s: record without a result", path)
		}
		rs = append(rs, r)
	}
	return rs, sc.Err()
}

// benchMetric is one metric as BENCHMARK.json declares it.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchFile is the part of BENCHMARK.json the comparison needs.
type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func readBenchFile(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// side is one commit's runs of one workload: each metric's value per
// run, and per seed for the exact comparison of model metrics.
type side struct {
	runs   map[string][]float64
	bySeed map[string]map[uint64]float64
}

func collect(rs []record) map[string]*side {
	out := map[string]*side{}
	for _, r := range rs {
		s := out[r.Workload]
		if s == nil {
			s = &side{runs: map[string][]float64{}, bySeed: map[string]map[uint64]float64{}}
			out[r.Workload] = s
		}
		for name, v := range r.Result.Metrics {
			s.runs[name] = append(s.runs[name], v.Value)
			if s.bySeed[name] == nil {
				s.bySeed[name] = map[uint64]float64{}
			}
			s.bySeed[name][r.Seed] = v.Value
		}
	}
	return out
}

// compareFiles prints, per workload, every metric's median and spread on
// both sides and a verdict, judged by the bounds in benchPath.
func compareFiles(w io.Writer, benchPath, oldPath, newPath string) error {
	b, err := readBenchFile(benchPath)
	if err != nil {
		return err
	}
	oldRs, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	newRs, err := readRecords(newPath)
	if err != nil {
		return err
	}
	olds, news := collect(oldRs), collect(newRs)
	var names []string
	for name := range olds {
		if news[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload has runs in both %s and %s", oldPath, newPath)
	}
	metrics := append(append([]benchMetric(nil), b.EndToEnd...), b.PerLayer...)
	for _, name := range names {
		o, n := olds[name], news[name]
		fmt.Fprintf(w, "%s\n  %-32s %22s %22s %9s  %s\n", name, "metric", "old median [IQR%]", "new median [IQR%]", "change", "verdict")
		for _, m := range metrics {
			ov, nv := o.runs[m.Name], n.runs[m.Name]
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			om, nm := median(ov), median(nv)
			change := "-"
			if om != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(nm-om)/om)
			}
			fmt.Fprintf(w, "  %-32s %12.4f [%5.1f%%] %12.4f [%5.1f%%] %9s  %s\n",
				m.Name, om, 100*spread(ov), nm, 100*spread(nv), change,
				verdict(m, ov, nv, o.bySeed[m.Name], n.bySeed[m.Name]))
		}
	}
	return nil
}

// verdict judges one metric. Model metrics must match exactly at every
// seed both sides ran. A bounded metric has regressed when its new
// median is worse than the old one by more than the bound; when the old
// runs' own spread is wider than the bound that cannot be told apart
// from noise, so the verdict is unresolved unless every new run beats
// every old run. Unbounded per-layer metrics get no verdict.
func verdict(m benchMetric, old, new []float64, oldSeed, newSeed map[uint64]float64) string {
	if isModelMetric(m.Name) {
		common := 0
		for seed, v := range oldSeed {
			if nv, ok := newSeed[seed]; ok {
				common++
				if nv != v {
					return fmt.Sprintf("changed (seed %d)", seed)
				}
			}
		}
		if common == 0 {
			return "no common seed"
		}
		return "identical"
	}
	if m.Bound == 0 {
		return ""
	}
	worse := func(a, b float64) bool {
		if m.Better == "higher" {
			return a < b
		}
		return a > b
	}
	if spread(old) > m.Bound {
		allBetter := true
		for _, nv := range new {
			for _, ov := range old {
				if !worse(ov, nv) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "ok (every new run better)"
		}
		return "unresolved"
	}
	om, nm := median(old), median(new)
	limit := om * (1 + m.Bound)
	if m.Better == "higher" {
		limit = om * (1 - m.Bound)
	}
	if worse(nm, limit) {
		return "regressed"
	}
	return "ok"
}
