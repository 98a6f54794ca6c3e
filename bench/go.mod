module cottage/bench

go 1.22

require cottage v0.0.0

replace cottage => ../
