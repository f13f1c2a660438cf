module bookleaf/bench

go 1.24

require bookleaf v0.0.0

replace bookleaf => ../
