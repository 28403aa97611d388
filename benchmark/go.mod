module gom/benchmark

go 1.22

require gom v0.0.0

replace gom => ../
