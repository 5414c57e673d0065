package core_test

import (
	"fmt"

	"erfilter/internal/core"
	"erfilter/internal/entity"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// ExampleKNNJoinFilter pairs every query entity with its nearest indexed
// entities under cosine similarity of token sets.
func ExampleKNNJoinFilter() {
	dataset := func(name string, texts ...string) *entity.Dataset {
		profiles := make([]entity.Profile, len(texts))
		for i, s := range texts {
			profiles[i] = entity.Profile{Attrs: []entity.Attribute{{Name: "title", Value: s}}}
		}
		return entity.New(name, profiles)
	}
	task := &entity.Task{
		E1:    dataset("E1", "canon powershot a540", "nikon coolpix p100"),
		E2:    dataset("E2", "canon powershot a540 camera"),
		Truth: entity.NewGroundTruth(nil),
	}
	join := &core.KNNJoinFilter{Model: text.Model{N: 1}, Measure: sparse.Cosine, K: 1}
	out, _ := join.Run(core.NewInput(task, entity.SchemaAgnostic))
	fmt.Println(out.Pairs)
	// Output: [(0,0)]
}
