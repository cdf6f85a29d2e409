module scidp/benchmark

go 1.23

require scidp v0.0.0

replace scidp => ../
