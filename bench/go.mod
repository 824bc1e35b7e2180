module mindetail/bench

go 1.22

require mindetail v0.0.0

replace mindetail => ../
