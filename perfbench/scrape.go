package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/client"
)

// series is one sample line of a Prometheus text exposition.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one /v1/metrics exposition, parsed.
type scrape []series

// fetchScrape fetches and parses one process's /v1/metrics.
func fetchScrape(ctx context.Context, baseURL string) (scrape, error) {
	text, err := client.New(baseURL, client.WithAdmin()).Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", baseURL, err)
	}
	return parseExposition(text)
}

// parseExposition parses the sample lines of a Prometheus text exposition;
// comments and blank lines are skipped.
func parseExposition(text string) (scrape, error) {
	var out scrape
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("malformed metric line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metric line %q: %w", line, err)
		}
		s := series{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			body := strings.TrimSuffix(s.name[i+1:], "}")
			s.name = s.name[:i]
			for body != "" {
				eq := strings.Index(body, `="`)
				if eq < 0 {
					return nil, fmt.Errorf("malformed labels in %q", line)
				}
				key := body[:eq]
				rest := body[eq+2:]
				end := strings.Index(rest, `"`)
				for end > 0 && rest[end-1] == '\\' {
					next := strings.Index(rest[end+1:], `"`)
					if next < 0 {
						end = -1
						break
					}
					end += next + 1
				}
				if end < 0 {
					return nil, fmt.Errorf("unterminated label in %q", line)
				}
				s.labels[key] = rest[:end]
				body = strings.TrimPrefix(rest[end+1:], ",")
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// match reports whether s carries every label in want.
func (s series) match(want map[string]string) bool {
	for k, v := range want {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

func (s series) matchAny(sets []map[string]string) bool {
	for _, want := range sets {
		if s.match(want) {
			return true
		}
	}
	return false
}

// sum adds the values of every series of the given name carrying the labels.
func (sc scrape) sum(name string, labels map[string]string) float64 {
	var total float64
	for _, s := range sc {
		if s.name == name && s.match(labels) {
			total += s.value
		}
	}
	return total
}

// window is the change of the metrics over a measured window.
type window struct {
	before, after scrape
}

func (w window) delta(name string, labels map[string]string) float64 {
	return w.after.sum(name, labels) - w.before.sum(name, labels)
}

// mean is a histogram's mean over the window in its own unit. It is 0 when
// nothing was observed.
func (w window) mean(hist string, labels map[string]string) float64 {
	n := w.delta(hist+"_count", labels)
	if n <= 0 {
		return 0
	}
	return w.delta(hist+"_sum", labels) / n
}

// quantile estimates a histogram's q-quantile over the window by linear
// interpolation inside the bucket that holds it, summing every series of
// the name that carries one of the label sets (all series when none is
// given). It is 0 when nothing was observed; a quantile in the +Inf bucket
// reads as the largest finite bound.
func (w window) quantile(hist string, q float64, labelSets ...map[string]string) float64 {
	if len(labelSets) == 0 {
		labelSets = []map[string]string{nil}
	}
	counts := map[float64]float64{}
	for i, sc := range []scrape{w.before, w.after} {
		sign := -1.0
		if i == 1 {
			sign = 1
		}
		for _, s := range sc {
			if s.name != hist+"_bucket" || !s.matchAny(labelSets) {
				continue
			}
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil {
				continue
			}
			counts[le] += sign * s.value
		}
	}
	bounds := make([]float64, 0, len(counts))
	for le := range counts {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || counts[bounds[len(bounds)-1]] <= 0 {
		return 0
	}
	total := counts[bounds[len(bounds)-1]]
	target := q * total
	prevBound, prevCount := 0.0, 0.0
	for _, le := range bounds {
		c := counts[le]
		if c >= target {
			if math.IsInf(le, 1) {
				return prevBound
			}
			if c == prevCount {
				return le
			}
			return prevBound + (le-prevBound)*(target-prevCount)/(c-prevCount)
		}
		prevBound, prevCount = le, c
	}
	return prevBound
}
