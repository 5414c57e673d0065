package main

import (
	"encoding/json"
	"os"

	"erfilter/internal/datagen"
	"erfilter/internal/entity"
)

// corpusSeed fixes every collection the benchmark serves. --seed never
// reaches the generator: it only permutes the order in which the fixed
// queries, write slots and pool entities are used, so quality numbers
// and the answers hash cannot move with it.
const corpusSeed = 20230403

// corpus is the fixed input of one online workload.
type corpus struct {
	e1    []entity.Profile // resident collection; CSV row i becomes id i
	q     []entity.Profile // query set, half of it true duplicates of e1
	pool  []entity.Profile // insert pool: e1's vocabulary, no duplicate of q
	truth []int64          // per query: id of its e1 duplicate, -1 when none
}

// quickNoise is the moderate-noise product profile the repository's own
// tests and examples use; d8Noise is the generic-heavy Walmart-Amazon
// analog, where a PC >= 0.9 threshold leaves about ten candidates per
// query.
func quickNoise() datagen.Spec { return datagen.QuickSpec(0, 0, 0, 0) }

func d8Noise() datagen.Spec {
	for _, s := range datagen.Specs(1) {
		if s.Name == "D8" {
			return s
		}
	}
	panic("perf: datagen lost its D8 spec")
}

// genCorpus draws nE1+nPool collection entities and nQ queries from one
// generator call, so resident entities and pool share brands, model
// codes and description words. The generator puts the nQ/2 duplicated
// objects first, so every truth pair points into the resident part.
func genCorpus(noise datagen.Spec, nE1, nQ, nPool int) *corpus {
	s := noise
	s.Name, s.Domain, s.Seed = "perf", "product", corpusSeed
	s.N1, s.N2, s.Duplicates = nE1+nPool, nQ, nQ/2
	t := datagen.Generate(s)
	c := &corpus{
		e1:    t.E1.Profiles[:nE1],
		pool:  t.E1.Profiles[nE1:],
		q:     t.E2.Profiles,
		truth: make([]int64, nQ),
	}
	for i := range c.truth {
		c.truth[i] = -1
	}
	for _, p := range t.Truth.Pairs() {
		c.truth[p.Right] = int64(p.Left)
	}
	return c
}

// writeCSV stores the resident collection in the format erserve -bulk
// reads; row order is id order.
func (c *corpus) writeCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := entity.WriteCSV(f, entity.New("e1", c.e1)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attrMap is the JSON "attrs" form of a profile.
func attrMap(p entity.Profile) map[string]string {
	m := make(map[string]string, len(p.Attrs))
	for _, a := range p.Attrs {
		if old, ok := m[a.Name]; ok {
			m[a.Name] = old + " " + a.Value
		} else {
			m[a.Name] = a.Value
		}
	}
	return m
}

// userBytes is the payload a client hands over for one entity: attribute
// names plus values.
func userBytes(p entity.Profile) int {
	n := 0
	for _, a := range p.Attrs {
		n += len(a.Name) + len(a.Value)
	}
	return n
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
