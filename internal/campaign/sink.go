package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Sink receives finished cell records as a campaign runs. Implementations
// must be safe for concurrent Write calls (the Runner also serialises its
// own calls, but sinks may be shared across runners).
type Sink interface {
	Write(Record) error
}

// JSONLSink streams records as JSON Lines, the campaign checkpoint format:
// one self-contained record per line, appendable and resumable.
type JSONLSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewJSONLSink wraps w. The caller retains ownership of w (and closes it,
// if applicable) after the campaign completes.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Write emits one record as a single JSON line.
func (s *JSONLSink) Write(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err = s.w.Write(data)
	return err
}

// MultiSink fans every record out to each member sink in order, stopping
// at the first error.
type MultiSink []Sink

// Write implements Sink.
func (m MultiSink) Write(rec Record) error {
	for _, s := range m {
		if err := s.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

// ReadRecords parses a JSONL results stream. Unparseable lines are skipped:
// a campaign interrupted mid-write leaves a truncated final line, and
// resume semantics treat any line that does not decode to a keyed record as
// "cell not finished" so it is simply recomputed.
func ReadRecords(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	var out []Record
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" {
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign: reading results: %w", err)
	}
	return out, nil
}

// OpenCheckpoint opens (creating if absent) a JSONL checkpoint file for a
// resumed campaign: it reads the cell keys already present — the value for
// Runner.Skip — repairs a torn final line left by an interrupted run so
// appended records start on their own line, and returns the file
// positioned at the end, ready to wrap in a JSONLSink. The caller closes
// the file.
func OpenCheckpoint(path string) (*os.File, map[string]bool, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	skip, err := ReadKeys(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if end > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, end-1); err != nil {
			f.Close()
			return nil, nil, err
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte("\n")); err != nil {
				f.Close()
				return nil, nil, err
			}
		}
	}
	return f, skip, nil
}

// ReadKeys returns the set of cell keys present in a JSONL results stream,
// the input to Runner.Skip for checkpoint resume.
func ReadKeys(r io.Reader) (map[string]bool, error) {
	recs, err := ReadRecords(r)
	if err != nil {
		return nil, err
	}
	keys := make(map[string]bool, len(recs))
	for _, rec := range recs {
		keys[rec.Key] = true
	}
	return keys, nil
}
