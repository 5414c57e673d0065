package wal

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"erfilter/internal/faultfs"
	"erfilter/internal/frame/frametest"
)

// streamRecords is what the valid stream of the corruption suite holds.
var streamRecords = []Record{
	{Type: 1, Data: []byte("insert-shaped payload")},
	{Type: 2, Data: []byte{7, 0, 0, 0, 0, 0, 0, 0}},
	{Type: 3, Data: nil},
	{Type: 1, Data: bytes.Repeat([]byte("x"), 300)},
}

func streamBytes() []byte {
	data := []byte(segMagic)
	for _, r := range streamRecords {
		data = appendFrame(data, r.Type, r.Data)
	}
	return data
}

// A log is a run of individually sealed frames, so a reader cannot tell a
// stream cut at a frame boundary from a shorter log: the suite's "loads"
// is "every one of the want records came back" (want < 0, the fuzz form,
// accepts whatever decodes). Its trailing-bytes policy — a torn tail is
// cut, provable corruption is refused — is neither of the suite's two and
// stays with TestTornTailTruncated and TestParseFramesRejectsCorruption.

// parseFormat registers a WAL segment stream as a follower receives it:
// through ParseFrames. What parses re-frames to the bytes consumed.
func parseFormat(want int) frametest.Format {
	return frametest.Format{
		Valid:      map[string][]byte{"stream": streamBytes()},
		Seeds:      [][]byte{[]byte(segMagic)},
		TrailingOK: true,
		Load: func(data []byte) (func() ([]byte, error), error) {
			recs, n, err := ParseFrames(data, true)
			if err == nil && want >= 0 && len(recs) != want {
				err = fmt.Errorf("parsed %d of %d records", len(recs), want)
			}
			return func() ([]byte, error) {
				if n == 0 {
					return nil, nil // not even the magic has arrived yet
				}
				out := []byte(segMagic)
				for _, r := range recs {
					out = appendFrame(out, r.Type, r.Data)
				}
				return out, nil
			}, err
		},
	}
}

// openFormat registers the same stream as recovery reads it: as the first
// segment file of a directory handed to Open. Recovery never fails on
// damage — it cuts the log there — and the cut is durable: opening the
// directory again replays exactly the same records.
func openFormat(want int) frametest.Format {
	replayed := func(m *faultfs.Mem) (recs []Record, err error) {
		w, err := Open(dir, Options{FS: m}, collect(&recs))
		if err == nil {
			err = w.Close()
		}
		return recs, err
	}
	return frametest.Format{
		Valid:      map[string][]byte{"stream": streamBytes()},
		TrailingOK: true,
		Load: func(data []byte) (func() ([]byte, error), error) {
			m := faultfs.NewMem()
			f, err := faultfs.Create(m, filepath.Join(dir, segName(1)))
			if err == nil {
				if _, err = f.Write(data); err == nil {
					err = f.Sync()
				}
				f.Close()
			}
			if err != nil {
				return nil, err
			}
			recs, err := replayed(m)
			if err == nil && want >= 0 && len(recs) != want {
				err = fmt.Errorf("replayed %d of %d records", len(recs), want)
			}
			return func() ([]byte, error) {
				again, err := replayed(m)
				if err == nil && !reflect.DeepEqual(again, recs) {
					err = fmt.Errorf("a second recovery replayed %d records, the first %d", len(again), len(recs))
				}
				return nil, err
			}, err
		},
	}
}

func TestWALStreamCorruption(t *testing.T) {
	for name, f := range map[string]frametest.Format{
		"parse": parseFormat(len(streamRecords)),
		"open":  openFormat(len(streamRecords)),
	} {
		t.Run(name+"/truncation", f.Truncations)
		t.Run(name+"/bitflip", f.BitFlips)
	}
}

func FuzzWALStream(f *testing.F) { frametest.Fuzz(f, parseFormat(-1), openFormat(-1)) }
