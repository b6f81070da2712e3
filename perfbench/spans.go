package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of the traced run, recorded around the
// benchmark's own calls into the program and the hooks it calls back.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // 0 = root
	Unit   int    `json:"unit"`   // unit index within its pass; -1 = none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. It is used from the
// main goroutine only: pool hooks store plain timestamps that become spans
// after the pass returns.
type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) add(name string, parent, unit int, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Name: name, Parent: parent, Unit: unit,
		Start: start.Sub(l.origin).Nanoseconds(), End: end.Sub(l.origin).Nanoseconds()})
	return id
}

// addPass records a pass span and, under it, unit → {experiments.build,
// experiments.run}.
func (l *spanLog) addPass(p passOut, name string, parent int) {
	if len(p.units) == 0 {
		return
	}
	first := p.units[0].start
	for _, u := range p.units {
		if !u.start.IsZero() && u.start.Before(first) {
			first = u.start
		}
	}
	pid := l.add(name, parent, -1, first, first.Add(p.wall))
	for i, u := range p.units {
		if u.start.IsZero() {
			continue
		}
		uid := l.add("unit", pid, i, u.start, u.start.Add(u.wall))
		if u.build > 0 {
			clock := u.start.Add(u.build)
			l.add("experiments.build", uid, i, u.start, clock)
			l.add("experiments.run", uid, i, clock, u.start.Add(u.wall))
		}
	}
}

// summary totals spans by name: count, total time and self time (a span's
// duration minus the part its children cover).
func (l *spanLog) summary() []string {
	type agg struct {
		n           int
		total, self int64
	}
	children := map[int][]span{}
	for _, s := range l.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range l.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.End - s.Start - covered(children[s.ID])
	}
	sort.Strings(names)
	var out []string
	for _, name := range names {
		a := by[name]
		out = append(out, fmt.Sprintf("span %-20s n=%-5d total_ms=%-10.1f self_ms=%.1f",
			name, a.n, float64(a.total)/1e6, float64(a.self)/1e6))
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total int64
	lo, hi := s[0].Start, s[0].End
	for _, x := range s[1:] {
		if x.Start > hi {
			total += hi - lo
			lo, hi = x.Start, x.End
		} else if x.End > hi {
			hi = x.End
		}
	}
	return total + hi - lo
}

// write stores the spans as JSON lines under the build directory of the
// checkout and returns the file's path.
func (l *spanLog) write(o options, workload string) (string, error) {
	dir := filepath.Join(o.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
