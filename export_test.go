package sre

// TwoPrefixFatTree is twoPrefixFatTree for the package's external tests.
var TwoPrefixFatTree = twoPrefixFatTree
