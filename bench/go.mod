module datalinks/bench

go 1.22

require datalinks v0.0.0

replace datalinks => ../
