module vmalloc/bench

go 1.24

require vmalloc v0.0.0

replace vmalloc => ../
