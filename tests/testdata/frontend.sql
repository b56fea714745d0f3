-- One statement per line; '--' lines are comments. Every ExprKind,
-- every join kind, UNION / UNION ALL, NOT pushdown, NOT BETWEEN, IN-list
-- dedupe, and DNF expansions on both sides of the 64-disjunct cap.
SELECT a, T.B AS Bee, t.*, * FROM Tab T WHERE x = 1 AND y != 'it''s' AND z > 1.5 AND w <= 2E-3 AND v IS NULL
SELECT DISTINCT -a, +b, a + b * c - d / e % f, a || '-' || b, NULL, TRUE, FALSE FROM t
SELECT count(*), COUNT(DISTINCT x), CAST(y AS varchar(20)), now(), Schema.Upper(nm) FROM t GROUP BY z HAVING count(*) > 2 ORDER BY z DESC, y LIMIT 10 OFFSET 5
SELECT a FROM t WHERE NOT (p = 1 OR q < 2) AND NOT NOT r >= 3 AND NOT (s LIKE 'x%' ESCAPE '!') AND NOT k IS NOT NULL
SELECT a FROM t WHERE NOT (a + 1) AND NOT EXISTS (SELECT 1 FROM u WHERE u.id = t.id) AND NOT (x IN (SELECT y FROM v))
SELECT a FROM t WHERE x BETWEEN 1 AND 5 AND y NOT BETWEEN ? AND ?
SELECT a FROM t WHERE NOT (x BETWEEN 1 AND 5) AND z = 0
SELECT a FROM t WHERE x IN (1, 2, 2, 1, 3) AND y NOT IN ('a', 'b', 'a') AND z IN (?, ?) AND w IN (7)
SELECT a FROM t WHERE NOT (x IN (1, 2)) OR NOT (y NOT IN (3, 4))
SELECT CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END, CASE b WHEN 1 THEN 2 END FROM t
SELECT (SELECT max(v) FROM u WHERE u.k = t.k) AS mx FROM t WHERE t.k IN (SELECT k FROM w WHERE w.z LIKE ?) AND EXISTS (SELECT * FROM q)
SELECT a FROM t1 JOIN t2 ON t1.id = t2.id LEFT JOIN t3 ON t3.id = t1.id AND t3.z = 4 RIGHT OUTER JOIN t4 ON t4.id = t2.id FULL JOIN t5 ON t5.id = t4.id CROSS JOIN t6 INNER JOIN t7 ON t7.q = 1 OR t7.r = 2
SELECT d.a FROM (SELECT b AS a FROM u WHERE c = 5) d, core.accounts ac, (t8 JOIN t9 ON t8.x = t9.x) WHERE d.a = ac.a
SELECT a FROM t WHERE x = 1 UNION SELECT b FROM u WHERE y = 2 UNION SELECT a FROM t WHERE x = 3
SELECT a FROM t WHERE x = 1 UNION ALL SELECT a FROM t WHERE x = 1
(SELECT a FROM t WHERE p = 1 OR p = 2)
SELECT a FROM t WHERE (p = 1 OR q = 2) AND (r = 3 OR s = 4) AND u = 5
SELECT a FROM t WHERE b = 1 AND a = 2 AND b = 1 AND c < 3 AND a = 2
SELECT a FROM t WHERE x = 1 OR x = 1 OR y = 2
SELECT a FROM t WHERE (c0 = 0 OR d0 = 0) AND (c1 = 1 OR d1 = 1) AND (c2 = 2 OR d2 = 2) AND (c3 = 3 OR d3 = 3) AND (c4 = 4 OR d4 = 4) AND (c5 = 5 OR d5 = 5)
SELECT a FROM t WHERE (c0 = 0 OR d0 = 0) AND (c1 = 1 OR d1 = 1) AND (c2 = 2 OR d2 = 2) AND (c3 = 3 OR d3 = 3) AND (c4 = 4 OR d4 = 4) AND (c5 = 5 OR d5 = 5) AND (c6 = 6 OR d6 = 6)
SELECT a FROM t WHERE x IN (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69)
SELECT a FROM t WHERE x NOT IN (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69) AND y = 'q'
SELECT a FROM t WHERE x IN (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63) AND (y = 1 OR y = 2)
select Lower(Name), MyCol FROM MySchema.MyTable AS Mt WHERE Mt.MyCol = :named AND Mt.Other = $1 -- trailing comment
SELECT a FROM t /* block */ WHERE "Quoted Col" = 1 AND [bracketed] = 2 AND `back` = 3;
SELECT a FROM t WHERE x = 1 AND x = ? LIMIT 20, 10
SELECT a FROM t WHERE (x + 1) * 2 = y AND -(x) < 0 AND x - (y - z) = 1
SELECT a FROM t WHERE x GLOB 'a*' AND y NOT REGEXP 'b+' AND z NOT LIKE ?
UPDATE t SET a = 1
INSERT INTO t VALUES (1)
DELETE FROM t WHERE a = 1
CREATE TABLE t (a int)
EXEC sp_cleanup 1
SELECT FROM WHERE
SELECT a FROM t WHERE 'unterminated
GRANT ALL ON t TO u
