package online

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/frame"
	"erfilter/internal/frame/frametest"
	"erfilter/internal/knn"
	"erfilter/internal/vector"
)

// snapshotBytes renders a small populated resolver for corruption tests.
func snapshotBytes(t testing.TB, cfg Config) []byte {
	t.Helper()
	r := mustOpen(t, cfg, 1)
	for _, txt := range corpus {
		r.Insert(attrsText(txt))
	}
	r.Delete(1) // a gap in the id sequence must survive corruption checks
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// snapshotFormat registers ERSNAP — sparse, dense-flat and dense-hnsw
// (which embeds ERHNSW) — with the shared corruption suite. Load reads a
// framed prefix of the stream by design (erserve streams snapshots over
// HTTP where the reader may be wrapped): bytes past the trailer are
// ignored, and the checksum still guards everything the resolver was
// built from. Whatever loads must answer a query and re-save; Load
// normalises the configuration, so the bytes need not come back equal.
func snapshotFormat(t testing.TB) frametest.Format {
	f := frametest.Format{
		Valid:      map[string][]byte{},
		Seeds:      [][]byte{[]byte(snapMagic), []byte("ERSNAP\x02\n")}, // the retired v2 magic must be rejected cleanly
		TrailingOK: true,
		Load: func(data []byte) (func() ([]byte, error), error) {
			r, err := Load(bytes.NewReader(data), Config{}, 1)
			if err != nil {
				return nil, err
			}
			return func() ([]byte, error) {
				_ = r.Query(attrsText("probe"), QueryOptions{})
				return nil, r.Save(&bytes.Buffer{})
			}, nil
		},
	}
	for name, cfg := range testConfigs() {
		f.Valid[name] = snapshotBytes(t, cfg)
	}
	return f
}

func TestLoadRejectsEveryTruncation(t *testing.T)  { snapshotFormat(t).Truncations(t) }
func TestLoadRejectsEveryBitFlip(t *testing.T)     { snapshotFormat(t).BitFlips(t) }
func TestLoadTolerantOfTrailingBytes(t *testing.T) { snapshotFormat(t).TrailingBytes(t) }
func FuzzLoad(f *testing.F)                        { frametest.Fuzz(f, snapshotFormat(f)) }

// configMetaFormat registers ERCFG, the configuration blob pinned into a
// segment tier's manifest.
func configMetaFormat() frametest.Format {
	dense, _ := encodeConfigMeta(goldenConfig())
	sparse, _ := encodeConfigMeta(testConfigs()["knnj"])
	return frametest.Format{
		Valid: map[string][]byte{"dense": dense, "sparse": sparse},
		Seeds: [][]byte{[]byte(cfgMetaMagic)},
		Load: func(data []byte) (func() ([]byte, error), error) {
			c, err := decodeConfigMeta(data)
			if err != nil {
				return nil, err
			}
			return func() ([]byte, error) { return encodeConfigMeta(c) }, nil
		},
	}
}

func TestConfigMetaCorruption(t *testing.T) { configMetaFormat().Corruption(t) }
func FuzzDecodeConfigMeta(f *testing.F)     { frametest.Fuzz(f, configMetaFormat()) }

// payloadFormats registers the three WAL record payloads. They carry no
// checksum of their own — the log's record frame seals them — and a
// decoder ignores bytes past the fields it knows.
func payloadFormats() map[string]frametest.Format {
	u64 := func(what string) frametest.Format {
		return frametest.Format{
			Valid:      map[string][]byte{"record": encodeU64(1<<40 + 7)},
			TrailingOK: true,
			Unsealed:   true,
			Load: func(data []byte) (func() ([]byte, error), error) {
				v, err := decodeU64(data, what)
				return func() ([]byte, error) { return encodeU64(v), nil }, err
			},
		}
	}
	return map[string]frametest.Format{
		"insert": {
			Valid: map[string][]byte{
				"attrs": encodeInsert(7, goldenAttrs),
				"bare":  encodeInsert(1<<40+3, nil),
			},
			TrailingOK: true,
			Unsealed:   true,
			Load: func(data []byte) (func() ([]byte, error), error) {
				id, attrs, err := decodeInsert(data)
				return func() ([]byte, error) { return encodeInsert(id, attrs), nil }, err
			},
		},
		"delete": u64("delete"),
		"term":   u64("term"),
	}
}

func TestWALPayloadCorruption(t *testing.T) {
	for name, f := range payloadFormats() {
		t.Run(name, f.Corruption)
	}
}

func FuzzWALPayloads(f *testing.F) {
	p := payloadFormats()
	frametest.Fuzz(f, p["insert"], p["delete"], p["term"])
}

// TestOversizedEntityIsRefusedAtEntry: a value one byte past frame.MaxStr
// used to be logged, checkpointed and snapshotted by writers that did not
// share their readers' bound — after which the snapshot refused to load
// and the store directory never opened again. Now the snapshot writer
// refuses to seal it and the store refuses it at entry, staying healthy
// and empty (frame's own tests cover the attribute-block writer).
func TestOversizedEntityIsRefusedAtEntry(t *testing.T) {
	big := []entity.Attribute{{Name: "blob", Value: string(make([]byte, frame.MaxStr+1))}}
	if err := CheckEntity(big); err == nil {
		t.Fatal("CheckEntity passed a value over frame.MaxStr")
	}
	if err := CheckEntity(make([]entity.Attribute, frame.MaxAttrs+1)); err == nil {
		t.Fatal("CheckEntity passed an entity over frame.MaxAttrs")
	}
	if err := writeSnapshot(&bytes.Buffer{}, testConfigs()["knnj"], 1, []snapEntity{{id: 0, attrs: big}}, nil); err == nil {
		t.Fatal("a snapshot its own Load refuses was sealed")
	}

	s := mustOpenStore(t, faultfs.NewMem(), testConfigs()["knnj"], StoreOptions{})
	defer s.Close()
	batch := [][]entity.Attribute{attrsText("fits"), big}
	if _, err := s.InsertBatch(batch); !errors.Is(err, ErrEntityTooLarge) {
		t.Fatalf("InsertBatch with an oversized entity: %v, want ErrEntityTooLarge", err)
	}
	if ok, reason := s.Ready(); !ok || s.Resolver().Len() != 0 || s.Stats().PerShard[0].WAL.Appended != 0 {
		t.Fatalf("a refused batch left a mark: ready=%v (%v) len=%d stats=%+v", ok, reason, s.Resolver().Len(), s.Stats())
	}
	if id, err := s.Insert(batch[0]); err != nil || id != 0 {
		t.Fatalf("insert after a refusal: id=%d err=%v, want id 0", id, err)
	}
}

// TestLoadRejectsTombstonedGraphOfAnotherDim: an embedded graph whose
// every slot is a tombstone holds no live vector, and the dimension check
// used to run only over live ones — so a 4-d graph rode into a 32-d
// resolver, which adopted it verbatim and panicked on the first insert.
func TestLoadRejectsTombstonedGraphOfAnotherDim(t *testing.T) {
	cfg := testConfigs()["hnsw"]
	g := knn.NewIncHNSW(cfg.Metric, cfg.HNSW)
	if err := g.Add(0, vector.Vec{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	g.Remove(0)
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, cfg.normalize(), 1, nil, g.Freeze()); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, Config{}, 1); err == nil {
		t.Fatal("a snapshot whose graph has another dimension loaded")
	}
}

// TestSnapshotIsConsumedAsAStream: Load and Store.Bootstrap read a framed
// prefix of their source incrementally — what lets an HTTP body feed them
// without being held in memory whole. The source here fails the moment it
// is asked for anything past the snapshot's last byte, which a decoder
// that slurps its input (io.ReadAll reads until EOF) cannot avoid. The
// HNSW cut carries its embedded graph through the same reader.
func TestSnapshotIsConsumedAsAStream(t *testing.T) {
	pastEnd := iotest.ErrReader(errors.New("read past the end of the snapshot"))
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			s := mustOpenStore(t, faultfs.NewMem(), cfg, StoreOptions{})
			defer s.Close()
			for i := 0; i < 300; i++ {
				if _, err := s.Insert(attrsText(fmt.Sprintf("%s stream %d", corpus[i%len(corpus)], i))); err != nil {
					t.Fatal(err)
				}
			}
			pos, term, raw := leaderCut(t, s)
			r, err := Load(io.MultiReader(bytes.NewReader(raw), pastEnd), Config{}, 1)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			sameAnswers(t, "loaded from a stream", r, s.Resolver())

			f := openReplica(t, faultfs.NewMem(), storageKinds["memory"], StoreOptions{})
			defer f.Close()
			if err := f.Bootstrap(pos, term, io.MultiReader(bytes.NewReader(raw), pastEnd)); err != nil {
				t.Fatalf("bootstrap: %v", err)
			}
			sameAnswers(t, "bootstrapped from a stream", f.Resolver(), s.Resolver())
		})
	}
}
