module silica/cmd/silica-bench

go 1.22

require silica v0.0.0

replace silica => ../..
