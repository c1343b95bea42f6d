package lang

// TreeWalk is the tree-walking oracle (treewalk_test.go) for the external
// tests that pit it against the compiled form.
var TreeWalk = treeWalk
