package main

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// The paper numbers the benchmark cross-checks come from the committed
// results/ files, which earlier full experiment runs wrote; they never
// come from the hardener under test in this run.

// table1IndGeomean returns the "+ind" column of Table 1's geomean row,
// as rendered ("2.42").
func table1IndGeomean(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var cols []string // the slow-down columns, in header order
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if f[0] == "benchmark" {
			for i, h := range f {
				if h == "baseline" {
					cols = f[i+1:]
				}
			}
		}
		if f[0] != "geomean" || cols == nil {
			continue
		}
		var xs []string
		for _, v := range f[1:] {
			if strings.HasSuffix(v, "x") {
				xs = append(xs, strings.TrimSuffix(v, "x"))
			}
		}
		for i, c := range cols {
			if c == "+ind" && i < len(xs) {
				return xs[i], nil
			}
		}
	}
	return "", fmt.Errorf("%s: no +ind geomean", path)
}

// figure8Geomean returns Figure 8's geometric-mean overhead in percent,
// as rendered ("161").
func figure8Geomean(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "Geometric Mean"); ok {
			return strings.TrimSuffix(strings.TrimSpace(rest), "%"), nil
		}
	}
	return "", fmt.Errorf("%s: no Geometric Mean line", path)
}

// table2Row is one committed Table 2 row.
type table2Row struct {
	id                      string
	total, memcheck, redfat int
}

var table2Line = regexp.MustCompile(`^(.+?)\s+Memcheck\s+(\d+)/(\d+) \(.*\)\s+RedFat\s+(\d+)/(\d+) `)

// table2Rows parses every detection row of results/table2.txt, the
// temporal extension included.
func table2Rows(path string) ([]table2Row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []table2Row
	for _, line := range strings.Split(string(data), "\n") {
		m := table2Line.FindStringSubmatch(line + " ")
		if m == nil {
			continue
		}
		n := make([]int, 4)
		for i := range n {
			n[i], _ = strconv.Atoi(m[i+2])
		}
		if n[1] != n[3] {
			return nil, fmt.Errorf("%s: row %q: totals differ", path, m[1])
		}
		rows = append(rows, table2Row{id: strings.TrimSpace(m[1]), total: n[1],
			memcheck: n[0], redfat: n[2]})
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no rows", path)
	}
	return rows, nil
}
