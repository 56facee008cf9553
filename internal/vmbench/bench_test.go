package vmbench

import "testing"

func BenchmarkResidentTouch(b *testing.B)   { ResidentTouch(b) }
func BenchmarkBuildAMapSparse(b *testing.B) { BuildAMapSparse(b) }
func BenchmarkCOWBreak(b *testing.B)        { COWBreak(b) }
func BenchmarkPageHash(b *testing.B)        { PageHash(b) }
func BenchmarkContentIndexHit(b *testing.B) { ContentIndexHit(b) }

func BenchmarkContentIndexMiss(b *testing.B) { ContentIndexMiss(b) }
