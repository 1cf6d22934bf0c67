module csaw/benchmark

go 1.22

require csaw v0.0.0

replace csaw => ../
