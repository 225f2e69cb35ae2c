// The benchmark is a module of its own, so that the parent module's
// `go build ./...` and `go test ./...` do not see it. The import path
// keeps the `repro/` prefix, which is what lets it import the parent's
// internal packages through the replace below.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
