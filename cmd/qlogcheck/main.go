// Command qlogcheck validates qlog JSONL trace files written by
// h3cdn-measure -qlog and prints per-file summaries.
//
// Usage:
//
//	qlogcheck file.qlog...
//	qlogcheck -dir traces/
//
// Every line must parse as standalone JSON (the JSON-SEQ text framing
// qlog tools consume). The checker verifies the header line, pairs
// visit_start/visit_end records, refuses a visit_start whose
// dropped_events is not 0 (the writer delivers every event of a visit or
// fails it), and reports visit and event counts. It exits nonzero on the
// first malformed file.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

func main() {
	os.Exit(run())
}

func run() int {
	dir := flag.String("dir", "", "check every .qlog file under this directory")
	flag.Parse()

	files := flag.Args()
	if *dir != "" {
		found, err := filepath.Glob(filepath.Join(*dir, "*.qlog"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "qlogcheck: %v\n", err)
			return 1
		}
		sort.Strings(found)
		files = append(files, found...)
	}
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "qlogcheck: no input files (pass paths or -dir)")
		return 2
	}

	var totalVisits, totalEvents int
	for _, name := range files {
		sum, err := checkFile(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qlogcheck: %s: %v\n", name, err)
			return 1
		}
		fmt.Printf("%s: %d visits, %d events\n", filepath.Base(name), sum.visits, sum.events)
		totalVisits += sum.visits
		totalEvents += sum.events
	}
	fmt.Printf("total: %d files, %d visits, %d events\n", len(files), totalVisits, totalEvents)
	return 0
}

type summary struct {
	visits int
	events int
}

// checkFile validates one qlog file.
func checkFile(name string) (summary, error) {
	f, err := os.Open(name)
	if err != nil {
		return summary{}, err
	}
	defer f.Close()
	return check(f)
}

// check validates a qlog stream line by line.
func check(r io.Reader) (summary, error) {
	var sum summary
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	line := 0
	openVisit := false
	for sc.Scan() {
		line++
		var rec map[string]any
		if err := decodeRecord(sc.Bytes(), &rec); err != nil {
			return sum, fmt.Errorf("line %d: invalid JSON: %v", line, err)
		}
		if line == 1 {
			if rec["qlog_format"] != "JSON-SEQ" {
				return sum, fmt.Errorf("line 1: missing qlog JSON-SEQ header")
			}
			continue
		}
		switch rec["name"] {
		case "sim:visit_start":
			if openVisit {
				return sum, fmt.Errorf("line %d: visit_start inside an open visit", line)
			}
			openVisit = true
			sum.visits++
			if data, ok := rec["data"].(map[string]any); ok {
				if v, ok := data["dropped_events"]; ok && v != json.Number("0") {
					return sum, fmt.Errorf("line %d: dropped_events %v, want 0", line, v)
				}
			}
		case "sim:visit_end":
			if !openVisit {
				return sum, fmt.Errorf("line %d: visit_end without visit_start", line)
			}
			openVisit = false
		case nil:
			return sum, fmt.Errorf("line %d: event record without a name", line)
		default:
			if !openVisit {
				return sum, fmt.Errorf("line %d: event outside a visit", line)
			}
			sum.events++
		}
	}
	if err := sc.Err(); err != nil {
		return sum, err
	}
	if openVisit {
		return sum, fmt.Errorf("unterminated visit at end of file")
	}
	return sum, nil
}

// decodeRecord parses one line as a single JSON value, keeping numbers
// as json.Number so that counts are checked exactly. A number no float64
// holds (1e1000) is refused: qlog readers decode numbers as doubles.
func decodeRecord(b []byte, rec *map[string]any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	if err := dec.Decode(rec); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(b[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("invalid character %q after top-level value", rest[0])
	}
	return checkNumbers(*rec)
}

// checkNumbers refuses a number anywhere in v that overflows a float64.
func checkNumbers(v any) error {
	switch v := v.(type) {
	case json.Number:
		if _, err := strconv.ParseFloat(string(v), 64); err != nil {
			// Named by kind, not value: maps are walked in random order.
			return errors.New("number out of float64 range")
		}
	case map[string]any:
		for _, x := range v {
			if err := checkNumbers(x); err != nil {
				return err
			}
		}
	case []any:
		for _, x := range v {
			if err := checkNumbers(x); err != nil {
				return err
			}
		}
	}
	return nil
}
