//go:build race

package knn

func init() { raceEnabled = true }
