package main

import "unreachable"

func main() { println(unreachable.Used()) }
