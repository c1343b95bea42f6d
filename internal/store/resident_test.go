package store_test

import (
	"runtime"
	"testing"

	"prognosticator/internal/store"
	"prognosticator/internal/value"
)

// TestStoreResidentRowAllocs pins what a populated store costs the
// collector per row: the heap objects it must mark each cycle and the bytes
// it holds. A resident row is its key's encoding and its record's block; the
// version chain lives in the shard's map and the field names in the shape,
// so a row is two objects plus its share of the map's tables (2.00 objects
// and 355 B here). A per-row pointer object of any kind pushes the count to
// three.
func TestStoreResidentRowAllocs(t *testing.T) {
	const rows = 50_000
	const maxObjects, maxBytes = 2.1, 400.0
	shape := value.NewShape("quantity", "ytd", "orderCnt", "remoteCnt", "data", "dist01", "dist02", "dist03")
	dist := value.Str("DISTINFO-0123456789-ABCD") // a constant: no allocation per row

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := store.New()
	for i := int64(0); i < rows; i++ {
		row := shape.Record(value.Int(i%100), value.Int(0), value.Int(0), value.Int(0), value.Str("original"), dist, dist, dist)
		s.Put(0, value.NewKey("STOCK", value.Int(i/1000), value.Int(i%1000)), row)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)

	objects := float64(after.HeapObjects-before.HeapObjects) / rows
	bytes := float64(after.HeapAlloc-before.HeapAlloc) / rows
	t.Logf("%.2f heap objects, %.0f B per resident row", objects, bytes)
	if objects > maxObjects {
		t.Errorf("%.2f heap objects per resident row, want <= %.1f", objects, maxObjects)
	}
	if bytes > maxBytes {
		t.Errorf("%.0f B per resident row, want <= %.0f", bytes, maxBytes)
	}
}
