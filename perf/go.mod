module erfilter/perf

go 1.22

require erfilter v0.0.0

replace erfilter => ../
