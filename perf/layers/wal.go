package layers

import (
	"os"
	"path/filepath"

	"erfilter/internal/wal"
)

// walLayer: one synchronous append — frame, write, fsync — of a record
// the size of an entity, on the filesystem the durable workload uses.
func walLayer(p *prepared, out map[string]Value) {
	dir := filepath.Join(p.in.Tmp, "layer-wal")
	defer os.RemoveAll(dir)
	w, err := wal.Open(dir, wal.Options{}, nil)
	if err != nil {
		panic(err)
	}
	defer w.Close()
	rec := []byte(p.e1Raw[0])
	out["wal.append_sync_us"] = perCallUS(60, 1, func() {
		if err := w.Append(1, rec); err != nil {
			panic(err)
		}
	})
}
