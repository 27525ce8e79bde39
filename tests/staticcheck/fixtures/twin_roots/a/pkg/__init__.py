"""Package a/pkg: its module shares the dotted name pkg.mod with b/pkg."""
