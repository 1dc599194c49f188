#!/bin/sh
# Knapsack answer for the external-solver workload: takes the items in
# order while they fit, so the selection is feasible but not claimed
# optimal. Prints one MiniZinc-style solution block.
# Usage: sh solver.sh MODEL INSTANCE TIME_LIMIT_MS SEED
capacity=0
weights=
values=
while IFS= read -r line; do
    case $line in
        "capacity = "*) capacity=${line#*= } ;;
        "weight = "*) weights=${line#*= } ;;
        "value = "*) values=${line#*= } ;;
    esac
done < "$2"
weights=${weights#\[}
weights=${weights%\]}
values=${values#\[}
values=${values%\]}
IFS=', '
set -- $values
take=
used=0
objective=0
for weight in $weights; do
    if [ $((used + weight)) -le "$capacity" ]; then
        used=$((used + weight))
        objective=$((objective + $1))
        take=${take:+$take, }1
    else
        take=${take:+$take, }0
    fi
    shift
done
printf 'take = [%s]\nobjective = %s\n----------\n' "$take" "$objective"
