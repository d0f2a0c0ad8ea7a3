// Package silica reproduces Project Silica (SOSP 2023): a cloud
// archival storage system on quartz glass. See README.md for the
// architecture, DESIGN.md for the system inventory and paper mapping,
// and EXPERIMENTS.md for the reproduced evaluation. Applications start
// from internal/service (one library's data path) or internal/cluster
// (many libraries behind a router); bench_test.go in this directory
// regenerates every table and figure of the paper at reduced scale.
package silica
