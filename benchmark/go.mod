module oostream/benchmark

go 1.22

require oostream v0.0.0

replace oostream => ../
