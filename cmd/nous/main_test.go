package main

import (
	"bytes"
	"context"
	"testing"
)

// A fresh -data-dir builds the KG the in-memory path builds: the same world
// and articles give byte-identical exports with and without one.
func TestDataDirBuildsInMemoryKG(t *testing.T) {
	export := func(dataDir string) []byte {
		bf := &buildFlags{world: "drone", articles: 50, seed: 42, dataDir: dataDir}
		p, _ := assemble(context.Background(), bf)
		defer func() {
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		var buf bytes.Buffer
		if err := p.KG().ExportJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	mem, durable := export(""), export(t.TempDir())
	if !bytes.Equal(mem, durable) {
		t.Fatalf("-data-dir export differs from the in-memory one (%d vs %d bytes)", len(durable), len(mem))
	}
}
