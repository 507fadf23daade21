module rnknn/bench

go 1.24

require rnknn v0.0.0

replace rnknn => ../
